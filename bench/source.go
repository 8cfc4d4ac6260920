package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"asterixfeeds/internal/adm"
	"asterixfeeds/internal/tweetgen"
)

// poolSize is the number of pre-rendered TweetGen lines the generator
// cycles through. The generator's memory is this pool and nothing that
// grows with the number of records sent: rendering every line up front put
// ~0.5 GB of live heap into the process under test and moved Go's GC pacing
// (65–73 k rec/s, 11 % spread, against 82.6–85.4 k, 3.3 %, with the pool).
const poolSize = 16384

// idDigits is the width of the zero-padded id of every pooled line, which
// is the part patched per send.
const idDigits = 10

// pool is the load generator's whole input: poolSize TweetGen tweets
// rendered once as the newline-terminated JSON lines a TweetGen server
// pushes, whose id is overwritten in place for every send.
type pool struct {
	lines [][]byte
}

// idOff is the offset of the id's digits in every pooled line.
var idOff = len(`{"id":"`)

// newPool renders the first poolSize tweets of tweetgen.NewGenerator(seed, 0).
// TweetGen's id ("s<seed>-p0-<10 digits>") is cut down to its digits: an id
// whose width follows the seed moves record sizes, and with them flush and
// merge boundaries, from one seed to the next (seed 500 → 5000 moved
// alloc_bytes_per_record by 13 % and disk_bytes_per_source_byte by 14 %).
func newPool(seed int64) *pool {
	p := &pool{lines: make([][]byte, poolSize)}
	gen := tweetgen.NewGenerator(seed, 0)
	var b strings.Builder
	for i := range p.lines {
		b.Reset()
		writeJSON(&b, gen.Next().WithField("id", adm.String(keyOf(0))))
		b.WriteByte('\n')
		p.lines[i] = []byte(b.String())
	}
	return p
}

// writeJSON renders v in TweetGen's wire format: one JSON document whose
// scalars use their ADM text form.
func writeJSON(b *strings.Builder, v adm.Value) {
	rec, ok := v.(*adm.Record)
	if !ok {
		b.WriteString(v.String())
		return
	}
	b.WriteByte('{')
	for i := 0; i < rec.NumFields(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		name, fv := rec.FieldAt(i)
		b.WriteString(strconv.Quote(name))
		b.WriteByte(':')
		writeJSON(b, fv)
	}
	b.WriteByte('}')
}

// slotOf is the pooled line a preloaded key was rendered from; a key that
// is never upserted still holds that version.
func slotOf(id int64) int { return int(id % poolSize) }

// line patches id into pooled line slot and returns it. The slice is only
// valid until the slot is used again.
func (p *pool) line(slot int, id int64) []byte {
	l := p.lines[slot]
	d := l[idOff : idOff+idDigits]
	for i := idDigits - 1; i >= 0; i-- {
		d[i] = byte('0' + id%10)
		id /= 10
	}
	return l
}

// keyOf is the primary key string of id.
func keyOf(id int64) string { return fmt.Sprintf("%0*d", idDigits, id) }

// record parses pooled line slot carrying id, the way the socket adaptor
// would: it is what the dataset must hold for that key and version.
func (p *pool) record(slot int, id int64) (*adm.Record, error) {
	v, err := adm.Parse(strings.TrimSpace(string(p.line(slot, id))))
	if err != nil {
		return nil, fmt.Errorf("pool line %d: %w", slot, err)
	}
	rec, ok := v.(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("pool line %d is not a record", slot)
	}
	return rec, nil
}

// source is the push-based TCP data source the stock socket_adaptor dials.
type source struct {
	ln   net.Listener
	conn net.Conn
	w    *bufio.Writer
	pool *pool
	// track maps the ids whose stored version the run verifies to the
	// pooled slot last sent for them.
	track map[int64]int
	sent  int64 // records written
	bytes int64 // line bytes written
}

// listen binds the source to a free loopback port.
func listen(p *pool) (*source, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &source{ln: ln, pool: p, track: make(map[int64]int)}, nil
}

func (s *source) addr() string { return s.ln.Addr().String() }

// awaitAdaptor accepts the adaptor's connection and reads its handshake
// line. Nothing is sent before the caller starts a send, so returning from
// here is the start gate: the whole pipeline is connected and idle.
func (s *source) awaitAdaptor(timeout time.Duration) error {
	if err := s.ln.(*net.TCPListener).SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	conn, err := s.ln.Accept()
	if err != nil {
		return fmt.Errorf("waiting for the socket adaptor: %w", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return err
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		conn.Close()
		return fmt.Errorf("reading the adaptor's handshake: %w", err)
	}
	s.conn = conn
	s.w = bufio.NewWriterSize(conn, 1<<16)
	return nil
}

// close severs the adaptor's connection and stops listening.
func (s *source) close() {
	if s.conn != nil {
		s.conn.Close()
	}
	s.ln.Close()
}

// send writes one record: pooled line slot under key id.
func (s *source) send(slot int, id int64) error {
	if _, tracked := s.track[id]; tracked {
		s.track[id] = slot
	}
	l := s.pool.line(slot, id)
	s.sent++
	s.bytes += int64(len(l))
	_, err := s.w.Write(l)
	return err
}

// keyFunc names the key of the i-th record of a stream.
type keyFunc func(i int64) int64

// flood sends n records back to back; TCP back-pressure is the only pacing
// (a closed loop with one client).
func (s *source) flood(n int64, key keyFunc) error {
	for i := int64(0); i < n; i++ {
		if err := s.send(int(i%poolSize), key(i)); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// schedule is an open-loop send schedule: record i is due at start + i/rate
// whether or not the system keeps up.
type schedule struct {
	start time.Time
	rate  float64 // records per second
}

// due is when record i should be sent.
func (sc schedule) due(i int64) time.Time {
	return sc.start.Add(time.Duration(float64(i) / sc.rate * float64(time.Second)))
}

// dueBy is how many records are due at or before now.
func (sc schedule) dueBy(now time.Time) int64 {
	if now.Before(sc.start) {
		return 0
	}
	return int64(now.Sub(sc.start).Seconds()*sc.rate) + 1
}

// tick is how often an open-loop sender or reader wakes.
const tick = time.Millisecond

// openLoop follows sc for n items: on every 1 ms tick it hands do the items
// that have come due since the last one. It returns, per tick that had any,
// how late the first of them was handed over.
func openLoop(sc schedule, n int64, do func(lo, hi int64) error) ([]time.Duration, error) {
	var late []time.Duration
	for i := int64(0); i < n; {
		now := time.Now()
		due := sc.dueBy(now)
		if due > n {
			due = n
		}
		if due <= i {
			time.Sleep(tick)
			continue
		}
		late = append(late, now.Sub(sc.due(i)))
		if err := do(i, due); err != nil {
			return late, err
		}
		i = due
	}
	return late, nil
}

// paced sends n records on sc and returns how late the generator ran.
func (s *source) paced(sc schedule, n int64, key keyFunc) ([]time.Duration, error) {
	return openLoop(sc, n, func(lo, hi int64) error {
		for i := lo; i < hi; i++ {
			if err := s.send(int(i%poolSize), key(i)); err != nil {
				return err
			}
		}
		return s.w.Flush()
	})
}
