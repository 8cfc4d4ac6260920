package asterixfeeds

import (
	"testing"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/hyracks"
)

// dropDDL declares an open type and a replicated dataset D over it, inserts
// two records and drops D again.
const dropDDL = `use dataverse feeds;
	create type T1 as open { id: string };
	create dataset D(T1) primary key id with replication;
	insert into dataset D ( [{"id": "old-1"}, {"id": "old-2"}] );
	drop dataset D;`

// recreateDropped declares D again over a closed type and checks that it
// starts empty and that T2's rules, not T1's, decide what it stores.
func recreateDropped(t *testing.T, inst *Instance) {
	t.Helper()
	inst.MustExec(`use dataverse feeds;
		create type T2 as closed { id: string, n: int64 };
		create dataset D(T2) primary key id with replication;`)
	v, err := inst.Query(`for $d in dataset D return $d.id`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v.(*adm.OrderedList).Items); n != 0 {
		t.Fatalf("the new dataset D holds %d records of the dropped one: %s", n, v)
	}
	if _, err := inst.Exec(`insert into dataset D ( {"id": "new-1"} );`); err == nil {
		t.Fatal(`closed T2 accepted {"id": "new-1"}, which lacks n`)
	}
	inst.MustExec(`insert into dataset D ( {"id": "new-2", "n": 2} );`)
}

// TestDropDatasetRemovesItsStorage: a dropped dataset's partitions are
// closed and deleted, so a new dataset of the same name starts empty under
// its own type.
func TestDropDatasetRemovesItsStorage(t *testing.T) {
	inst := startTest(t, "A", "B")
	inst.MustExec(dropDDL)
	recreateDropped(t, inst)
}

// TestDropDatasetRemovesItsStorageAcrossRestart: the dropped dataset's
// directories are gone from disk, so a restart does not reopen them under a
// new dataset of the same name.
func TestDropDatasetRemovesItsStorageAcrossRestart(t *testing.T) {
	cfg := Config{
		Nodes:   []string{"A", "B"},
		DataDir: t.TempDir(),
		Hyracks: hyracks.Config{HeartbeatInterval: 10 * time.Millisecond, HeartbeatTimeout: 150 * time.Millisecond},
		Feeds:   core.Options{MetricsWindow: 50 * time.Millisecond},
	}
	inst, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst.MustExec(dropDDL)
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recreateDropped(t, re)
}
