package pathdisc

// Parity error formats shared by the compiled CSR kernel (compile.go) and
// the map-based test oracle (oracle_test.go). The kernel promises errors
// identical to the oracle's word for word — pinned by TestCSRValidation —
// and one constant per format keeps the two validation paths from drifting
// apart silently.
const (
	errFmtRequesterMissing = "pathdisc: requester %q not in infrastructure"
	errFmtProviderMissing  = "pathdisc: provider %q not in infrastructure"
	errFmtSameEndpoints    = "pathdisc: requester and provider are the same component %q"
)
