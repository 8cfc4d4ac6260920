package ipa_test

import (
	"testing"

	"asterixfeeds/internal/lint"
	"asterixfeeds/internal/lint/ipa"
	"asterixfeeds/internal/lint/linttest"
)

func buildProgram(t *testing.T) *ipa.Program {
	t.Helper()
	pkgs, _ := linttest.Fixture(t, "ipamod")
	return ipa.For(pkgs)
}

func fnByName(t *testing.T, p *ipa.Program, display string) *ipa.Func {
	t.Helper()
	for _, fn := range p.SortedFuncs() {
		if fn.Display() == display {
			return fn
		}
	}
	t.Fatalf("function %s not found in program", display)
	return nil
}

func TestBlockingPropagatesThroughCallChain(t *testing.T) {
	p := buildProgram(t)
	top := fnByName(t, p, "a.Top")
	site := top.Summary.Blocks[ipa.KindSend]
	if site == nil {
		t.Fatal("a.Top: channel send not propagated through mid → leafSend")
	}
	if got, want := site.Via(), " via a.mid → a.leafSend"; got != want {
		t.Errorf("a.Top send chain = %q, want %q", got, want)
	}
	if site.Pos.Line == 0 {
		t.Error("propagated site lost the operation position")
	}
}

func TestGoStatementDoesNotBlockTheSpawner(t *testing.T) {
	p := buildProgram(t)
	sp := fnByName(t, p, "a.Spawner")
	if sp.Summary.Blocks[ipa.KindSend] != nil {
		t.Error("a.Spawner: go leafSend(ch) must not make the spawner blocking")
	}
}

func TestDetachedLiteralExcludedFromSummary(t *testing.T) {
	p := buildProgram(t)
	d := fnByName(t, p, "a.Detached")
	if d.Summary.Blocks[ipa.KindSend] != nil {
		t.Error("a.Detached: constructing a closure must not summarize as a send")
	}
}

func TestLockAcquisitionPropagates(t *testing.T) {
	p := buildProgram(t)
	caller := fnByName(t, p, "a.Caller")
	want := ipa.LockKey{Owner: "ipamod/internal/shared.Res", Field: "Mu"}
	site := caller.Summary.Acquires[want]
	if site == nil {
		t.Fatalf("a.Caller: %s not in transitive acquires %v", want, caller.Summary.SortedAcquires())
	}
	if got := site.Via(); got != " via a.LockRes" {
		t.Errorf("acquisition chain = %q, want via a.LockRes", got)
	}
	if want.String() != "shared.Res.Mu" {
		t.Errorf("display form = %q, want shared.Res.Mu", want.String())
	}
}

func TestPromotedLockKeyedByEmbedder(t *testing.T) {
	p := buildProgram(t)
	fn := fnByName(t, p, "a.LockEmbedded")
	want := ipa.LockKey{Owner: "ipamod/internal/shared.Embedded", Field: "Mutex"}
	if fn.Summary.Acquires[want] == nil {
		t.Fatalf("a.LockEmbedded: promoted lock not keyed as %s; acquires: %v", want, fn.Summary.SortedAcquires())
	}
}

func TestWaitGroupWaitIsBlocking(t *testing.T) {
	p := buildProgram(t)
	fn := fnByName(t, p, "a.WaitAll")
	if fn.Summary.Blocks[ipa.KindWGWait] == nil {
		t.Fatal("a.WaitAll: WaitGroup.Wait not classified as blocking")
	}
}

func TestInterfaceDispatchResolvesToImplementers(t *testing.T) {
	p := buildProgram(t)
	disp := fnByName(t, p, "b.Dispatch")
	if disp.Summary.Blocks[ipa.KindRecv] == nil {
		t.Fatal("b.Dispatch: receive in (*W).Await not reached through interface dispatch")
	}
	if got := disp.Summary.Blocks[ipa.KindRecv].Via(); got != " via b.(*W).Await" {
		t.Errorf("dispatch chain = %q, want via b.(*W).Await", got)
	}
	// The call site itself resolves to the concrete method.
	var found bool
	for _, call := range disp.Calls {
		for _, target := range call.Targets {
			if target.Display() == "b.(*W).Await" {
				found = true
			}
		}
	}
	if !found {
		t.Error("b.Dispatch call site did not resolve to b.(*W).Await")
	}
}

func TestProgramCacheReturnsSameInstance(t *testing.T) {
	pkgs, _ := linttest.Fixture(t, "ipamod")
	if ipa.For(pkgs) != ipa.For(pkgs) {
		t.Error("ipa.For rebuilt the program for the same package set")
	}
}

func TestRealModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := lint.NewLoader("../../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	p := ipa.Build(pkgs)
	if len(p.SortedFuncs()) < 100 {
		t.Errorf("suspiciously small program: %d functions", len(p.SortedFuncs()))
	}
}
