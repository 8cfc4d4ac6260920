// Package lint is a self-contained static-analysis framework for the
// asterixfeeds module, built only on the standard library's go/ast,
// go/parser, and go/types. It exists because the feed stack's correctness
// depends on invariants no compiler checks: layering between the dataflow
// engine, storage, and the feed runtime; lock discipline on hot paths;
// durability errors; and determinism. Analyzers live in subpackages —
// per-package checks (archrule, errdrop, simclock) and the whole-module
// lockorder check built on the internal/lint/ipa call-graph engine — and
// are registered in internal/lint/all and driven by cmd/feedlint.
package lint
