package adm

// ParseOracle and CheckTranscode let tests outside the package, which may
// import packages that import adm, hold Transcode to the frozen parser.
var (
	ParseOracle    = parseOracle
	CheckTranscode = checkTranscode
)
