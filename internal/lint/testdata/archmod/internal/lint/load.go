// Package lint is the fixture's lint framework: a second stdlib importer
// is refused.
package lint

// Loader loads fixture packages.
type Loader struct {
	FastStd bool
}
