// Package all is the feedlint analyzer registry: the single list every
// consumer — cmd/feedlint, the framework's own repo-wide tests — pulls
// from, so an analyzer wired here is wired everywhere. A test in this
// package enumerates the analyzer source directories and fails if one is
// missing from the list.
package all

import (
	"asterixfeeds/internal/lint"
	"asterixfeeds/internal/lint/archrule"
	"asterixfeeds/internal/lint/errdrop"
	"asterixfeeds/internal/lint/lockorder"
	"asterixfeeds/internal/lint/simclock"
)

// Analyzers returns the full suite with default configuration, in the
// order findings groups print.
func Analyzers() []lint.Analyzer {
	return []lint.Analyzer{
		archrule.New(nil),
		errdrop.New(nil),
		simclock.New(nil),
		lockorder.New(),
	}
}
