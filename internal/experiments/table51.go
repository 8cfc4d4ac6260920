package experiments

import (
	"fmt"
	"sync"
	"time"

	"asterixfeeds"
	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/core"
	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/tweetgen"
)

// Table51Row is one row of Table 5.1: the average wall-clock time to put a
// record into an indexed dataset by a given method.
type Table51Row struct {
	// Method labels the mechanism.
	Method string
	// AvgMsPerRecord is the mean end-to-end cost per record. For the feed it
	// is the time from its first persisted record to its last, over the
	// records after the first.
	AvgMsPerRecord float64
	// SetupMs is the feed's set-up: the time from the connect call to its
	// first persisted record. Zero for the batch rows, which pay set-up
	// per statement, inside AvgMsPerRecord.
	SetupMs float64
	// Records is how many records the measurement covered.
	Records int
}

// Table51Config parameterizes the batch-inserts-versus-feed experiment
// (§5.7.1).
type Table51Config struct {
	// Records is the insert workload size (the paper used 8.2M; scaled).
	Records int
	// BatchSizes are the insert batch sizes to measure (paper: 1 and 20).
	BatchSizes []int
	// Preload seeds the target dataset before measuring (the paper
	// preloaded 590M records; scaled).
	Preload int
}

// DefaultTable51Config returns the scaled-down defaults.
func DefaultTable51Config() Table51Config {
	return Table51Config{Records: 800, BatchSizes: []int{1, 20}, Preload: 1000}
}

// table51Instance boots an instance with a realistic per-job scheduling
// latency, so each standalone insert statement pays the compile/schedule
// overhead a distributed deployment would (the mechanism Table 5.1
// measures). The feed pays it once per pipeline job.
func table51Instance() (*asterixfeeds.Instance, error) {
	return asterixfeeds.Start(asterixfeeds.Config{
		Nodes: nodeNames(1),
		Hyracks: hyracks.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  60 * time.Millisecond,
			ScheduleDelay:     3 * time.Millisecond,
		},
		Feeds: core.Options{MetricsWindow: 200 * time.Millisecond},
	})
}

// Table51 reproduces Table 5.1: execution time per record for batch inserts
// of varying size versus continuous feed ingestion. Each insert statement
// pays compilation and job scheduling; the feed pays one pipeline setup for
// the whole stream, reported apart from its per-record cost. The feed's
// times are taken as the store persists each record, so they include no
// polling; records persist a frame at a time, so the first frame's store
// time falls in the set-up.
func Table51(cfg Table51Config) ([]Table51Row, error) {
	var rows []Table51Row

	// Generate the record workload once, as ADM records.
	gen := tweetgen.NewGenerator(11, 0)
	workload := make([]*adm.Record, cfg.Records)
	for i := range workload {
		workload[i] = gen.Next()
	}

	for _, batch := range cfg.BatchSizes {
		inst, err := table51Instance()
		if err != nil {
			return nil, err
		}
		if _, err := inst.Exec(tweetDDL); err != nil {
			inst.Close()
			return nil, err
		}
		if err := declareTweetDataset(inst, "Users"); err != nil {
			inst.Close()
			return nil, err
		}
		if err := preload(inst, "Users", cfg.Preload); err != nil {
			inst.Close()
			return nil, err
		}
		start := time.Now()
		for lo := 0; lo < len(workload); lo += batch {
			hi := lo + batch
			if hi > len(workload) {
				hi = len(workload)
			}
			// Each iteration is one standalone insert statement: parse,
			// compile, schedule, execute, clean up (§5.7.1).
			stmt := buildInsertStatement("Users", workload[lo:hi])
			if _, err := inst.Exec(stmt); err != nil {
				inst.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		inst.Close()
		rows = append(rows, Table51Row{
			Method:         fmt.Sprintf("Batch Insert (Batch Size = %d)", batch),
			AvgMsPerRecord: float64(elapsed) / float64(time.Millisecond) / float64(len(workload)),
			Records:        len(workload),
		})
	}

	// Continuous data ingestion: one feed over the same record count.
	inst, err := table51Instance()
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	if _, err := inst.Exec(tweetDDL); err != nil {
		return nil, err
	}
	if err := declareTweetDataset(inst, "Users"); err != nil {
		return nil, err
	}
	if err := preload(inst, "Users", cfg.Preload); err != nil {
		return nil, err
	}
	if _, err := inst.Exec(fmt.Sprintf(`use dataverse feeds;
		create feed UsersFeed using tweetgen_adaptor ("rate"="1000000", "count"="%d", "seed"="11");`, cfg.Records)); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var first, last time.Time
	persisted := 0
	done := make(chan struct{})
	stamp := func(*adm.Record) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if persisted == 0 {
			first = now
		}
		last = now
		if persisted++; persisted == cfg.Records {
			close(done)
		}
	}
	start := time.Now()
	if _, err := inst.Feeds().ConnectFeed("feeds", "UsersFeed", "Users", "Basic", core.WithPersistObserver(stamp)); err != nil {
		return nil, err
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	if persisted < cfg.Records {
		return nil, fmt.Errorf("experiments: feed ingested %d of %d records", persisted, cfg.Records)
	}
	rows = append(rows, Table51Row{
		Method:         "Data Feed",
		AvgMsPerRecord: float64(last.Sub(first)) / float64(time.Millisecond) / float64(max(cfg.Records-1, 1)),
		SetupMs:        float64(first.Sub(start)) / float64(time.Millisecond),
		Records:        cfg.Records,
	})
	return rows, nil
}

// preload bulk-inserts n records through one big insert job (the paper's
// `load dataset` step).
func preload(inst *asterixfeeds.Instance, dataset string, n int) error {
	if n <= 0 {
		return nil
	}
	gen := tweetgen.NewGenerator(99, 7)
	recs := make([]*adm.Record, n)
	for i := range recs {
		recs[i] = gen.Next()
	}
	return inst.InsertRecords(dataset, recs)
}

// buildInsertStatement renders records as one AQL insert statement.
func buildInsertStatement(dataset string, recs []*adm.Record) string {
	out := "use dataverse feeds; insert into dataset " + dataset + " ( ["
	for i, r := range recs {
		if i > 0 {
			out += ", "
		}
		out += r.String()
	}
	return out + "] );"
}
