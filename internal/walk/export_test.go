package walk

// The serial references and their fixtures, exported to this directory's
// external tests (package walk_test): those may import internal/distributed
// and so check the fleet gather against the same oracle, which this package's
// own tests cannot (distributed imports walk).
var (
	SerialFRankAccelReference = serialFRankAccelReference
	SerialTRankAccelReference = serialTRankAccelReference
	KernelTestGraphs          = kernelTestGraphs
	AssertBitIdentical        = assertBitIdentical
)
