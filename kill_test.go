package asterixfeeds

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"

	"asterixfeeds/internal/adm"
)

// killChildDir names, in a child's environment, the data directory the
// child's instance runs on; a test that finds it set is running as the child.
const killChildDir = "ASTERIXFEEDS_KILL_CHILD_DIR"

const (
	killBatches  = 201
	killBatchLen = 4
)

// TestAckedInsertsSurviveSIGKILL runs an Instance on a DataDir in a child
// process, reads the child's running total of inserted records — printed
// after each InsertRecords returns — and sends it SIGKILL. An instance
// restarted on the same directory must count every printed record: an
// acked insert has left the process at the default SyncWAL 0.
func TestAckedInsertsSurviveSIGKILL(t *testing.T) {
	if dir := os.Getenv(killChildDir); dir != "" {
		killChild(dir)
		return
	}
	dir := t.TempDir()
	acked := runKillChild(t, dir)

	inst, err := Start(Config{Nodes: []string{"A"}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.MustExec(`use dataverse kill;`)
	n, err := inst.DatasetCount("Recs")
	if err != nil {
		t.Fatal(err)
	}
	if n != acked {
		t.Fatalf("restart counts %d records, want the %d acked before SIGKILL", n, acked)
	}
}

// killChild is the child's half: it inserts killBatches batches, printing
// the running total after each InsertRecords returns, then waits for its
// parent to kill it. It exits when its stdin closes, so a child whose parent
// died never outlives it.
func killChild(dir string) {
	fail := func(err error) {
		fmt.Println("error:", err)
		os.Exit(1)
	}
	inst, err := Start(Config{Nodes: []string{"A"}, DataDir: dir})
	if err != nil {
		fail(err)
	}
	if _, err := inst.Exec(`create dataverse kill; use dataverse kill;
		create type Rec as open { id: int64 };
		create dataset Recs(Rec) primary key id;`); err != nil {
		fail(err)
	}
	for n := 0; n < killBatches*killBatchLen; n += killBatchLen {
		recs := make([]*adm.Record, killBatchLen)
		for j := range recs {
			recs[j] = adm.MustRecord([]string{"id", "text"}, []adm.Value{adm.Int64(n + j), adm.String("acked")})
		}
		if err := inst.InsertRecords("Recs", recs); err != nil {
			fail(err)
		}
		fmt.Println(n + killBatchLen)
	}
	io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

// runKillChild starts this test binary once more as a child running only
// TestAckedInsertsSurviveSIGKILL on dir, reads its running totals until the
// child has inserted every batch, sends it SIGKILL and returns the last
// total. On failure the cleanup kills the child, so no process outlives the
// test.
func runKillChild(t *testing.T, dir string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestAckedInsertsSurviveSIGKILL$", "-test.count=1")
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
