package lsm

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
)

// killChildDir names, in a child's environment, the directory the child
// writes to; a test that finds it set is running as the child.
const killChildDir = "LSM_KILL_CHILD_DIR"

const (
	killBatches  = 201
	killBatchLen = 4
)

// TestAckedBatchesSurviveSIGKILL runs a tree in a child process at
// SyncWAL 0, reads the child's running total of acked records — printed
// after each ApplyBatch returns — and sends it SIGKILL. Reopening the
// directory must find every acked record: an ack means the batch has left
// the process, whatever the fsync policy.
func TestAckedBatchesSurviveSIGKILL(t *testing.T) {
	if dir := os.Getenv(killChildDir); dir != "" {
		killChild(dir)
		return
	}
	dir := t.TempDir()
	acked := runKillChild(t, dir)

	tr := openTest(t, Options{Dir: dir})
	lost := 0
	for i := 0; i < acked; i++ {
		if _, ok, err := tr.Get(killKey(i)); err != nil {
			t.Fatal(err)
		} else if !ok {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked records lost to SIGKILL", lost, acked)
	}
}

func killKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// killChild is the child's half: it applies killBatches batches, printing
// the running total of records after each ApplyBatch returns, then waits
// for its parent to kill it. It exits when its stdin closes, so a child
// whose parent died never outlives it.
func killChild(dir string) {
	tr, err := Open(Options{Dir: dir})
	if err != nil {
		fmt.Println("error:", err)
		os.Exit(1)
	}
	for n := 0; n < killBatches*killBatchLen; {
		b := NewBatch(killBatchLen)
		for j := 0; j < killBatchLen; j++ {
			b.Put(killKey(n+j), []byte(fmt.Sprintf("v%06d", n+j)))
		}
		if err := tr.ApplyBatch(b); err != nil {
			fmt.Println("error:", err)
			os.Exit(1)
		}
		n += killBatchLen
		fmt.Println(n)
	}
	io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

// runKillChild starts this test binary once more as a child running only
// TestAckedBatchesSurviveSIGKILL on dir, reads its running totals until the
// child has applied every batch, sends it SIGKILL and returns the last
// total. On failure the cleanup kills the child, so no process outlives the
// test.
func runKillChild(t *testing.T, dir string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestAckedBatchesSurviveSIGKILL$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildDir+"="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waited := false
	t.Cleanup(func() {
		stdin.Close()
		if !waited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	want, acked := killBatches*killBatchLen, 0
	sc := bufio.NewScanner(stdout)
	for acked < want && sc.Scan() {
		n, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("child: %s", sc.Text())
		}
		acked = n
	}
	if acked < want {
		t.Fatalf("child stopped after %d of %d acked records", acked, want)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	waited = true
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child did not die of SIGKILL: %v", err)
	}
	return acked
}
