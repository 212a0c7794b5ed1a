package fairness

import "encoding/json"

// MarshalIndentPinned is the encoding/json form RenderJSON must match
// byte for byte: the indented encoding of the report with its schema
// version pinned.
func MarshalIndentPinned(r *Report) ([]byte, error) {
	return json.MarshalIndent(r.pinned(), "", "  ")
}
