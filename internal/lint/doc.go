// Package lint is a self-contained static-analysis framework for the
// asterixfeeds module, built only on the standard library's go/ast,
// go/parser, and go/types. It exists because the feed stack's correctness
// depends on invariants no compiler checks: layering between the dataflow
// engine, storage, and the feed runtime; lock discipline on hot paths; and
// goroutine hygiene in the ingestion pipeline. Analyzers live in
// subpackages — per-package checks (archrule, goleak, errdrop,
// simclock) and whole-module interprocedural checks built on the
// internal/lint/ipa call-graph engine (lockorder, hooknil, chanhygiene) —
// are registered in internal/lint/all and driven by cmd/feedlint.
package lint
