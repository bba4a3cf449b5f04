package symbolic

// ForcePacketLead makes every pair-ordered packet encoding built from now
// on branch first on field ("src" or "dst") whatever the pair's scores,
// until restore is called. Set it before starting the diffs it should
// cover: the encodings read it without synchronization.
func ForcePacketLead(field string) (restore func()) {
	prev := packetLeadOverride
	packetLeadOverride = field
	return func() { packetLeadOverride = prev }
}
