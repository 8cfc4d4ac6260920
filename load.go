package asterixfeeds

import (
	"bufio"
	"bytes"
	"fmt"
	"os"

	"asterixfeeds/internal/adm"
)

// LoadDataset bulk-loads newline-delimited ADM/JSON records from a file
// into the named dataset (active dataverse) through a single insert job —
// the `load dataset` operation the paper's experiments use to pre-populate
// targets (§5.7.1). Malformed lines are rejected (bulk load is strict,
// unlike feed ingestion's soft-failure handling).
func (in *Instance) LoadDataset(dataset, path string) (int, error) {
	ds, ok := in.catalog.Dataset(in.Dataverse(), dataset)
	if !ok {
		return 0, fmt.Errorf("asterixfeeds: unknown dataset %s", dataset)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("asterixfeeds: load dataset: %w", err)
	}
	defer f.Close()

	var recs [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		rec, err := adm.Transcode(nil, text)
		if err != nil {
			return 0, fmt.Errorf("asterixfeeds: load dataset: line %d: %w", line, err)
		}
		if tag := adm.TypeTag(rec[0]); tag != adm.TagRecord {
			return 0, fmt.Errorf("asterixfeeds: load dataset: line %d: value is %s, want record", line, tag)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if err := in.runInsertJob(ds, recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}
