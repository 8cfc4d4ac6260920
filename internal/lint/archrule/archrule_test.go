package archrule_test

import (
	"testing"

	"asterixfeeds/internal/lint/archrule"
	"asterixfeeds/internal/lint/linttest"
)

// TestFixture asserts the exact layering violations in the archmod
// fixture: core→aql, hyracks→core, lsm→storage, aql→cmd/tool, the
// chaos package reaching past its Restrict-ed lsm symbol surface, and
// each guard row firing once with its message.
func TestFixture(t *testing.T) {
	linttest.RunGolden(t, "archmod", archrule.New(nil))
}
