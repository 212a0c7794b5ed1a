package core

// CorruptProb overwrites one stored probability without validation, so
// external tests can build a CPT with an invalid row.
func (c *CPT) CorruptProb(group, outcome int, p float64) {
	c.p[group*len(c.outcomes)+outcome] = p
}
