// Command tool is a second module that references fixture/internal/lib.
package main

import "fixture/internal/lib"

func main() { println(lib.FromTool(), lib.Generic(2), lib.Box{}.Used()) }
