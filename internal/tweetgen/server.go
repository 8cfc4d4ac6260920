package tweetgen

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"

	"asterixfeeds/internal/adm"
)

// Server runs TweetGen as a standalone push-based TCP source: it listens at
// an address, waits for a receiver's initial handshake line, and then pushes
// newline-delimited JSON tweets following its pattern (§5.7, "Modeling a
// Continuous External Data Source").
type Server struct {
	pattern Pattern
	seed    int64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	sent     int64
}

// NewServer creates a server emitting tweets per pattern, seeded for
// reproducibility.
func NewServer(pattern Pattern, seed int64) *Server {
	return &Server{
		pattern: pattern,
		seed:    seed,
		conns:   make(map[net.Conn]bool),
		stop:    make(chan struct{}),
	}
}

// Listen binds the server to addr ("host:port"; ":0" picks a free port) and
// starts accepting receivers. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("tweetgen: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for i := 0; ; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn, i)
	}
}

// serve handles one receiver: handshake, then push at the pattern's rate.
func (s *Server) serve(conn net.Conn, partition int) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Initial handshake: any line from the receiver requests the flow.
	br := bufio.NewReader(conn)
	if _, err := br.ReadString('\n'); err != nil {
		return
	}

	bw := bufio.NewWriterSize(conn, 1<<16)
	gen := NewGenerator(s.seed, partition)
	emit := func(rec *adm.Record) error {
		line := recordToJSON(rec)
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		s.mu.Lock()
		s.sent++
		s.mu.Unlock()
		// Flush in small batches to balance latency and throughput.
		if bw.Buffered() > 1<<14 {
			return bw.Flush()
		}
		return nil
	}
	err := gen.Emit(s.pattern, func(rec *adm.Record) error {
		if err := emit(rec); err != nil {
			return err
		}
		// Piggyback periodic flushes on pacing gaps.
		if gen.Count()%64 == 0 {
			return bw.Flush()
		}
		return nil
	}, s.stop)
	select {
	case <-s.stop:
		// Interrupted (simulated outage): vanish without the marker.
	default:
		if err == nil {
			// Pattern complete: announce a graceful end of stream so the
			// receiving adaptor does not mistake it for a source failure.
			bw.WriteString(EndOfStream + "\n")
		}
	}
	bw.Flush()
}

// EndOfStream is the protocol line a TweetGen server sends when its pattern
// completes; receivers treat it as a graceful end rather than an outage.
const EndOfStream = "!EOS"

// Sent reports the total tweets pushed across all receivers.
func (s *Server) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Close stops the server and severs receiver connections.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// recordToJSON renders an ADM record as a single-line JSON document the
// socket adaptor can parse back. ADM-only types (point, datetime) are not
// produced by TweetGen's tweets, so plain JSON suffices.
func recordToJSON(rec *adm.Record) string {
	var b strings.Builder
	writeJSON(&b, rec)
	return b.String()
}

func writeJSON(b *strings.Builder, v adm.Value) {
	switch t := v.(type) {
	case *adm.Record:
		b.WriteByte('{')
		for i := 0; i < t.NumFields(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			name, fv := t.FieldAt(i)
			fmt.Fprintf(b, "%q:", name)
			writeJSON(b, fv)
		}
		b.WriteByte('}')
	case *adm.OrderedList:
		b.WriteByte('[')
		for i, it := range t.Items {
			if i > 0 {
				b.WriteByte(',')
			}
			writeJSON(b, it)
		}
		b.WriteByte(']')
	default:
		b.WriteString(v.String())
	}
}
