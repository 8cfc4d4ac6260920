package core

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/hyracks"
)

// RecordSink receives the ADM records an adaptor produces. Either method may
// block to exert back-pressure on pull-based adaptors; push-based sources
// keep sending regardless, which is what the ingestion policies must absorb.
type RecordSink interface {
	// Emit delivers one record a generator already holds as a value; it is
	// EmitEncoded(adm.Encode(rec)).
	Emit(rec *adm.Record) error
	// EmitEncoded delivers one record in its binary encoding (adm.Encode,
	// adm.Transcode). Ownership of enc passes to the sink: the slice is the
	// record from here on, carried by frames and retained by whoever keeps
	// one, so the caller must not touch it again and must not hand over
	// bytes that alias a buffer it reuses.
	EmitEncoded(enc []byte) error
}

// Adaptor is one partition's interface to an external data source: it
// establishes the connection, receives raw data, parses and translates it
// into ADM records, and emits them (§4.1). AsterixDB treats it as a black
// box.
type Adaptor interface {
	// Start transfers data until the source ends or stop closes. A
	// returned error means the adaptor could not (re)establish the flow
	// and the feed should terminate (§6.2.3, external source failure).
	Start(sink RecordSink, stop <-chan struct{}) error
}

// ConfiguredAdaptor is an adaptor factory configured for one feed: it
// reports the adaptor's desired degree of parallelism (count or location
// constraints, §5.3.1) and instantiates per-partition adaptors.
type ConfiguredAdaptor interface {
	// Constraints reports where and how widely adaptor instances run.
	Constraints() hyracks.PartitionConstraint
	// NewInstance creates the adaptor for one partition.
	NewInstance(partition int) (Adaptor, error)
	// PushBased reports whether the source pushes data at its own rate
	// (true) or is polled (false).
	PushBased() bool
}

// AdaptorFactory configures an adaptor from the key/value pairs of a
// `create feed ... using <adaptor>((...))` statement.
type AdaptorFactory func(config map[string]string) (ConfiguredAdaptor, error)

// AdaptorRegistry resolves adaptor aliases to factories; it corresponds to
// the DatasourceAdapter metadata dataset plus installed libraries.
type AdaptorRegistry struct {
	mu        sync.RWMutex
	factories map[string]AdaptorFactory
}

// NewAdaptorRegistry creates a registry pre-loaded with the built-in
// adaptors (socket_adaptor, file_feed).
func NewAdaptorRegistry() *AdaptorRegistry {
	r := &AdaptorRegistry{factories: make(map[string]AdaptorFactory)}
	r.Register("socket_adaptor", SocketAdaptorFactory)
	r.Register("file_feed", FileAdaptorFactory)
	return r
}

// Register installs factory under alias.
func (r *AdaptorRegistry) Register(alias string, factory AdaptorFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[alias] = factory
}

// Lookup resolves an adaptor alias.
func (r *AdaptorRegistry) Lookup(alias string) (AdaptorFactory, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.factories[alias]
	return f, ok
}

// ---------------------------------------------------------------------------
// The parser half of the line-oriented adaptors (adaptor = transport +
// parser, §4.1).

// maxLineBytes is the longest line the socket and file adaptors accept.
const maxLineBytes = 1 << 22

// lineTranscoder turns text lines into encoded records through one scratch
// buffer reused across lines, so a line costs one allocation: the record.
type lineTranscoder struct {
	scratch []byte
}

// record returns the binary encoding of the ADM record on line, or nil when
// the line is empty, malformed or not a record (a soft failure: the adaptor
// skips it). The result is an exact-size copy the caller owns; it aliases
// neither line — a scanner's buffer, valid only until the next Scan — nor
// the scratch, which the next line overwrites.
func (t *lineTranscoder) record(line []byte) []byte {
	out, err := adm.Transcode(t.scratch[:0], line)
	if err != nil || adm.TypeTag(out[0]) != adm.TagRecord {
		return nil
	}
	t.scratch = out
	return append([]byte(nil), out...)
}

// ---------------------------------------------------------------------------
// Socket adaptor: the generic push-based adaptor AsterixDB ships for data
// directed at socket addresses (§4.1). One partition per configured address.

type socketAdaptorSet struct {
	addrs []string
}

// SocketAdaptorFactory builds a socket adaptor from config:
//
//	"sockets": comma-separated host:port addresses, one partition each
//	           ("datasource" is accepted as an alias, as in Listing 5.19)
//	"format":  "json" (default) — newline-delimited records
func SocketAdaptorFactory(config map[string]string) (ConfiguredAdaptor, error) {
	raw := config["sockets"]
	if raw == "" {
		raw = config["datasource"] // the paper's TweetGenAdaptor alias
	}
	if raw == "" {
		return nil, fmt.Errorf("core: socket adaptor requires a \"sockets\" config")
	}
	var addrs []string
	for _, a := range strings.Split(raw, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: socket adaptor has no addresses")
	}
	return &socketAdaptorSet{addrs: addrs}, nil
}

// Constraints implements ConfiguredAdaptor: one instance per address.
func (s *socketAdaptorSet) Constraints() hyracks.PartitionConstraint {
	return hyracks.CountConstraint(len(s.addrs))
}

// PushBased implements ConfiguredAdaptor.
func (s *socketAdaptorSet) PushBased() bool { return true }

// NewInstance implements ConfiguredAdaptor.
func (s *socketAdaptorSet) NewInstance(partition int) (Adaptor, error) {
	if partition < 0 || partition >= len(s.addrs) {
		return nil, fmt.Errorf("core: socket adaptor partition %d out of range", partition)
	}
	return &socketAdaptor{addr: s.addrs[partition]}, nil
}

type socketAdaptor struct {
	addr string
}

// socketEOS is the end-of-stream line a well-behaved source (cmd/tweetgen)
// sends when its data genuinely ends; without it, a dropped connection is
// treated as an outage and reconnection is attempted.
const socketEOS = "!EOS"

// Start implements Adaptor: it dials the source, sends the initial
// handshake, and parses newline-delimited JSON records until the source
// announces end-of-stream or stop closes. On connection loss it attempts a
// bounded number of reconnects (the adaptor-provided recovery of §6.2.3)
// before giving up — at which point the feed is terminated, as the paper
// prescribes for an unreachable external source.
func (a *socketAdaptor) Start(sink RecordSink, stop <-chan struct{}) error {
	const maxReconnects = 5
	attempts := 0
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		err := a.stream(sink, stop)
		if err == nil {
			return nil // graceful end of stream
		}
		attempts++
		if attempts > maxReconnects {
			return fmt.Errorf("core: socket adaptor %s: giving up after %d attempts: %w", a.addr, attempts, err)
		}
		select {
		case <-stop:
			return nil
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (a *socketAdaptor) stream(sink RecordSink, stop <-chan struct{}) error {
	conn, err := net.DialTimeout("tcp", a.addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Watchdog: close the connection when stop fires so the read loop
	// unblocks.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			// Best-effort unblock of the read loop; the deferred Close
			// already races with this one, so its error carries no signal.
			_ = conn.Close()
		case <-done:
		}
	}()
	// Initial handshake: request data (push-based protocol, §1.1.1).
	if _, err := conn.Write([]byte("GO\n")); err != nil {
		return err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), maxLineBytes)
	var lines lineTranscoder
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if string(line) == socketEOS {
			return nil // source announced a genuine end of stream
		}
		rec := lines.record(line)
		if rec == nil {
			// Malformed input is a soft failure: skip the record.
			continue
		}
		if err := sink.EmitEncoded(rec); err != nil {
			return nil // downstream closed: graceful end
		}
		select {
		case <-stop:
			return nil
		default:
		}
	}
	select {
	case <-stop:
		return nil
	default:
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// The connection dropped without an end-of-stream marker: treat it as
	// a source outage and let Start retry.
	return fmt.Errorf("core: socket adaptor %s: connection lost mid-stream", a.addr)
}

// ---------------------------------------------------------------------------
// File adaptor: the file_feed adaptor used to simulate a feed from a
// disk-resident file in the batch-insert comparison (§5.7.1, Listing 5.16).

// FileAdaptorFactory builds a file adaptor from config:
//
//	"path":   the source file of newline-delimited or concatenated records
//	"format": "adm" (default)
func FileAdaptorFactory(config map[string]string) (ConfiguredAdaptor, error) {
	path := config["path"]
	if path == "" {
		return nil, fmt.Errorf("core: file adaptor requires a \"path\" config")
	}
	return &fileAdaptorSet{path: path}, nil
}

type fileAdaptorSet struct {
	path string
}

// Constraints implements ConfiguredAdaptor: a single instance.
func (f *fileAdaptorSet) Constraints() hyracks.PartitionConstraint {
	return hyracks.CountConstraint(1)
}

// PushBased implements ConfiguredAdaptor: files are pulled.
func (f *fileAdaptorSet) PushBased() bool { return false }

// NewInstance implements ConfiguredAdaptor.
func (f *fileAdaptorSet) NewInstance(int) (Adaptor, error) {
	return &fileAdaptor{path: f.path}, nil
}

type fileAdaptor struct {
	path string
}

// Start implements Adaptor: parse records off the file until EOF.
func (a *fileAdaptor) Start(sink RecordSink, stop <-chan struct{}) error {
	f, err := os.Open(a.path)
	if err != nil {
		return fmt.Errorf("core: file adaptor: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), maxLineBytes)
	var lines lineTranscoder
	for sc.Scan() {
		select {
		case <-stop:
			return nil
		default:
		}
		rec := lines.record(bytes.TrimSpace(sc.Bytes()))
		if rec == nil {
			continue // soft failure: skip malformed line
		}
		if err := sink.EmitEncoded(rec); err != nil {
			return nil
		}
	}
	return sc.Err()
}

// ---------------------------------------------------------------------------
// In-process adaptor: wires a Go generator directly into a feed. The
// tweetgen package uses this to act as an external source without sockets.

// GeneratorFunc produces records for one partition until stop closes or the
// generator is exhausted.
type GeneratorFunc func(partition int, sink RecordSink, stop <-chan struct{}) error

// InProcessAdaptor adapts GeneratorFuncs to the adaptor interfaces.
type InProcessAdaptor struct {
	// Gen produces the records.
	Gen GeneratorFunc
	// Parallelism is the number of adaptor instances; default 1.
	Parallelism int
	// Push reports the source as push-based; most generators are.
	Push bool
}

// Constraints implements ConfiguredAdaptor.
func (g *InProcessAdaptor) Constraints() hyracks.PartitionConstraint {
	n := g.Parallelism
	if n <= 0 {
		n = 1
	}
	return hyracks.CountConstraint(n)
}

// PushBased implements ConfiguredAdaptor.
func (g *InProcessAdaptor) PushBased() bool { return g.Push }

// NewInstance implements ConfiguredAdaptor.
func (g *InProcessAdaptor) NewInstance(partition int) (Adaptor, error) {
	return &inProcessInstance{gen: g.Gen, partition: partition}, nil
}

type inProcessInstance struct {
	gen       GeneratorFunc
	partition int
}

// Start implements Adaptor.
func (a *inProcessInstance) Start(sink RecordSink, stop <-chan struct{}) error {
	return a.gen(a.partition, sink, stop)
}
