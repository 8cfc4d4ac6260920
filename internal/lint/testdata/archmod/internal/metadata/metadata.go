// Package metadata is the fixture catalog.
package metadata

// Catalog is the fixture catalog.
type Catalog struct{}

// AdapterDecl records an adaptor alias.
type AdapterDecl struct{}

// RegisterAdaptor records an adaptor.
func (c *Catalog) RegisterAdaptor(a *AdapterDecl) {}
