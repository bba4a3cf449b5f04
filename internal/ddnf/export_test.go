package ddnf

// Test-only exports for the external tests in this directory.
var (
	BuildReference = buildReference
	DAGDiff        = dagDiff
)
