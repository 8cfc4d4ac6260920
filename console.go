package asterixfeeds

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/governor"
)

// This file implements the Feed Management Console of the paper's
// Appendix A as an HTTP surface: per-connection state, the physical nodes
// participating at the intake/compute/store stages, and the instantaneous
// rates at which data is received and persisted — plus an AQL endpoint.

// ConsoleHandler returns an http.Handler exposing the feed management
// console:
//
//	GET  /admin/status          the same snapshots as /feeds
//	GET  /admin/cluster         node liveness as JSON
//	GET  /metrics               the full metric registry, Prometheus text
//	GET  /feeds                 per-connection FeedActivity snapshots, JSON
//	GET  /governor              per-node ingestion-governor snapshots, JSON
//	GET  /debug/pprof/          Go runtime profiles
//	POST /query                 AQL statements in the body; results as JSON
func (in *Instance) ConsoleHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, in.feeds.FeedActivity())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		in.registry.WriteProm(w) //nolint:errcheck // best effort over HTTP
	})
	mux.HandleFunc("/feeds", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, in.feeds.FeedActivity())
	})
	mux.HandleFunc("/governor", func(w http.ResponseWriter, r *http.Request) {
		var out []governor.Snapshot
		for _, n := range in.cluster.AllNodes() {
			if g := in.Governor(n); g != nil {
				out = append(out, g.Snapshot())
			}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/admin/cluster", func(w http.ResponseWriter, r *http.Request) {
		type node struct {
			Name  string `json:"name"`
			Alive bool   `json:"alive"`
		}
		var nodes []node
		alive := map[string]bool{}
		for _, n := range in.cluster.AliveNodes() {
			alive[n] = true
		}
		for _, n := range in.cluster.AllNodes() {
			nodes = append(nodes, node{Name: n, Alive: alive[n]})
		}
		writeJSON(w, nodes)
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST AQL statements", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results, err := in.Exec(string(body))
		type jsonResult struct {
			Kind    string `json:"kind"`
			Message string `json:"message,omitempty"`
			Value   any    `json:"value,omitempty"`
		}
		out := struct {
			Results []jsonResult `json:"results"`
			Error   string       `json:"error,omitempty"`
		}{}
		for _, res := range results {
			jr := jsonResult{Kind: res.Kind, Message: res.Message}
			if res.Value != nil {
				jr.Value = valueToJSON(res.Value)
			}
			out.Results = append(out.Results, jr)
		}
		if err != nil {
			out.Error = err.Error()
			w.WriteHeader(http.StatusBadRequest)
		}
		writeJSON(w, out)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort over HTTP
}

// valueToJSON converts an ADM value to a JSON-encodable Go value.
func valueToJSON(v adm.Value) any {
	switch t := v.(type) {
	case adm.Null, adm.Missing:
		return nil
	case adm.Boolean:
		return bool(t)
	case adm.Int64:
		return int64(t)
	case adm.Double:
		return float64(t)
	case adm.String:
		return string(t)
	case adm.Datetime:
		return t.Time().Format("2006-01-02T15:04:05.000Z")
	case adm.Point:
		return map[string]float64{"x": t.X, "y": t.Y}
	case adm.Rectangle:
		return map[string]any{"low": valueToJSON(t.Low), "high": valueToJSON(t.High)}
	case *adm.OrderedList:
		out := make([]any, len(t.Items))
		for i, it := range t.Items {
			out[i] = valueToJSON(it)
		}
		return out
	case *adm.UnorderedList:
		out := make([]any, len(t.Items))
		for i, it := range t.Items {
			out[i] = valueToJSON(it)
		}
		return out
	case *adm.Record:
		out := make(map[string]any, t.NumFields())
		for i := 0; i < t.NumFields(); i++ {
			name, fv := t.FieldAt(i)
			out[name] = valueToJSON(fv)
		}
		return out
	default:
		return fmt.Sprint(v)
	}
}
