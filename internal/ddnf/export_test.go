package ddnf

// Test-only exports for the external tests in this directory.
var (
	BuildReference = buildReference
	DAGDiff        = dagDiff
)

// RemaindersBuilt counts the nodes whose remainder BDD m has built.
func (m *Matcher) RemaindersBuilt() int {
	n := 0
	for _, built := range m.haveRem {
		if built {
			n++
		}
	}
	return n
}
