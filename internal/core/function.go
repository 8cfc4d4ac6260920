package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"asterixfeeds/internal/adm"
)

// RecordFunction is a pre-processing UDF applied to each feed record before
// persistence (§4.2). AQL UDFs are compiled to RecordFunctions by the aql
// package; external ("Java") UDFs are Go implementations installed in a
// FunctionRegistry and referred to by their "library#name".
type RecordFunction interface {
	// Name returns the function's catalog name.
	Name() string
	// Apply transforms one record. Returning (nil, nil) filters the
	// record out. Errors are soft failures handled per the ingestion
	// policy (§6.1).
	Apply(rec *adm.Record) (*adm.Record, error)
}

// FrameCoster is optionally implemented by RecordFunctions whose evaluation
// cost is dominated by per-record latency rather than CPU. The compute
// operator sleeps FrameDelay(n) once per n-record frame, modeling the cost
// in a way that scales with partitioned parallelism even on one host CPU.
type FrameCoster interface {
	// FrameDelay reports the simulated evaluation latency of n records.
	FrameDelay(n int) time.Duration
}

// EncodedRecordFunction is optionally implemented by RecordFunctions that
// can run on a record's encoding. The compute stage then calls ApplyEncoded
// instead of decode → Apply → encode. ApplyEncoded(rec) returns exactly what
// that round trip returns for rec (applyDecoded): the same bytes, nil when
// Apply filters the record out, Apply's error word for word — or the
// decoder's, when rec does not decode to a record. It never modifies rec, and
// its result is a fresh allocation, one per output record.
type EncodedRecordFunction interface {
	ApplyEncoded(rec []byte) ([]byte, error)
}

// applyDecoded is the compute stage's path for a RecordFunction without
// ApplyEncoded, and the specification ApplyEncoded is held to.
func applyDecoded(fn RecordFunction, rec []byte) ([]byte, error) {
	v, _, err := adm.Decode(rec)
	if err != nil {
		return nil, err
	}
	in, ok := v.(*adm.Record)
	if !ok {
		return nil, fmt.Errorf("assign: value is %s, want record", v.Tag())
	}
	res, err := fn.Apply(in)
	if err != nil || res == nil {
		return nil, err
	}
	return adm.Encode(res), nil
}

// FuncRecordFunction adapts a closure to RecordFunction.
type FuncRecordFunction struct {
	// FuncName is the reported name.
	FuncName string
	// Fn is the transformation.
	Fn func(rec *adm.Record) (*adm.Record, error)
	// Delay, if set, adds per-record simulated latency (see FrameCoster).
	Delay time.Duration
}

// Name implements RecordFunction.
func (f *FuncRecordFunction) Name() string { return f.FuncName }

// Apply implements RecordFunction.
func (f *FuncRecordFunction) Apply(rec *adm.Record) (*adm.Record, error) { return f.Fn(rec) }

// FrameDelay implements FrameCoster.
func (f *FuncRecordFunction) FrameDelay(n int) time.Duration {
	return time.Duration(n) * f.Delay
}

// ComposeFunctions chains fns left to right into one RecordFunction, used
// when a secondary feed is sourced from a non-parent ancestor and several
// UDFs must be applied in sequence (Listing 5.6). A nil result from any
// stage filters the record.
func ComposeFunctions(fns ...RecordFunction) RecordFunction {
	if len(fns) == 1 {
		return fns[0]
	}
	names := make([]string, len(fns))
	encs := make([]EncodedRecordFunction, 0, len(fns))
	for i, f := range fns {
		names[i] = f.Name()
		if enc, ok := f.(EncodedRecordFunction); ok {
			encs = append(encs, enc)
		}
	}
	c := &composed{name: strings.Join(names, ":"), fns: fns}
	if len(encs) == len(fns) && len(fns) > 0 {
		return &encodedComposed{composed: c, encs: encs}
	}
	return c
}

type composed struct {
	name string
	fns  []RecordFunction
}

// encodedComposed is a chain whose every stage has ApplyEncoded: the record
// stays encoded from one stage to the next.
type encodedComposed struct {
	*composed
	encs []EncodedRecordFunction
}

func (c *encodedComposed) ApplyEncoded(rec []byte) ([]byte, error) {
	for _, f := range c.encs {
		out, err := f.ApplyEncoded(rec)
		if err != nil || out == nil {
			return nil, err
		}
		rec = out
	}
	return rec, nil
}

func (c *composed) Name() string { return c.name }

func (c *composed) Apply(rec *adm.Record) (*adm.Record, error) {
	cur := rec
	for _, f := range c.fns {
		out, err := f.Apply(cur)
		if err != nil {
			return nil, err
		}
		if out == nil {
			return nil, nil
		}
		cur = out
	}
	return cur, nil
}

func (c *composed) FrameDelay(n int) time.Duration {
	var d time.Duration
	for _, f := range c.fns {
		if fc, ok := f.(FrameCoster); ok {
			d += fc.FrameDelay(n)
		}
	}
	return d
}

// FunctionRegistry resolves external UDF names to implementations; it plays
// the role of AsterixDB's installed external libraries (Appendix A).
type FunctionRegistry struct {
	mu  sync.RWMutex
	fns map[string]RecordFunction
}

// NewFunctionRegistry creates an empty registry pre-loaded with the built-in
// functions used throughout the paper's examples and experiments.
func NewFunctionRegistry() *FunctionRegistry {
	r := &FunctionRegistry{fns: make(map[string]RecordFunction)}
	r.Register(AddHashTags())
	r.Register(SentimentAnalysis())
	return r
}

// Register installs fn under its name, replacing any previous binding.
func (r *FunctionRegistry) Register(fn RecordFunction) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[fn.Name()] = fn
}

// Lookup resolves a function by name.
func (r *FunctionRegistry) Lookup(name string) (RecordFunction, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.fns[name]
	return fn, ok
}

// AddHashTags returns the paper's running-example UDF (Listing 4.2): it
// tokenizes message_text, collects "#"-prefixed tokens into an ordered list,
// and appends it as the topics field. It implements EncodedRecordFunction.
func AddHashTags() RecordFunction {
	return &hashTagsFunc{FuncRecordFunction{
		FuncName: "addHashTags",
		Fn: func(rec *adm.Record) (*adm.Record, error) {
			text, ok := rec.Field("message_text")
			if !ok {
				return nil, fmt.Errorf("addHashTags: record lacks message_text")
			}
			s, ok := adm.AsString(text)
			if !ok {
				return nil, fmt.Errorf("addHashTags: message_text is %s, want string", text.Tag())
			}
			var topics []adm.Value
			for _, tok := range strings.Fields(s) {
				if strings.HasPrefix(tok, "#") && len(tok) > 1 {
					topics = append(topics, adm.String(tok))
				}
			}
			return rec.WithField("topics", &adm.OrderedList{Items: topics}), nil
		},
	}}
}

type hashTagsFunc struct{ FuncRecordFunction }

// ApplyEncoded implements EncodedRecordFunction.
func (f *hashTagsFunc) ApplyEncoded(rec []byte) ([]byte, error) {
	if text, ok := stringField(rec, "message_text"); ok {
		var scratch [256]byte
		if out, err := adm.AppendWithField(nil, rec, "topics", appendHashTags(scratch[:0], text)); err == nil {
			return out, nil
		}
	}
	// No string message_text, or bytes that do not decode: Apply's error
	// or the decoder's, exactly.
	return applyDecoded(f, rec)
}

// The sentiment lexicon.
var (
	positiveWords = map[string]bool{"love": true, "loving": true, "great": true, "good": true, "happy": true, "nice": true, "amazing": true, "like": true}
	negativeWords = map[string]bool{"hate": true, "bad": true, "awful": true, "angry": true, "sad": true, "terrible": true, "dislike": true, "worst": true}
)

// SentimentAnalysis returns the example "Java" UDF of §5.3.3: a black-box
// function computing a sentiment score in [0,1] from the tweet text and
// appending it as the sentiment field. The score is a deterministic lexicon
// count so results are reproducible. It implements EncodedRecordFunction.
func SentimentAnalysis() RecordFunction {
	return &sentimentFunc{FuncRecordFunction{
		FuncName: "tweetlib#sentimentAnalysis",
		Fn: func(rec *adm.Record) (*adm.Record, error) {
			text, _ := rec.Field("message_text")
			s, ok := adm.AsString(text)
			if !ok {
				return nil, fmt.Errorf("sentimentAnalysis: message_text is not a string")
			}
			pos, neg := 0, 0
			for _, tok := range strings.Fields(strings.ToLower(s)) {
				tok = strings.Trim(tok, ".,!?#@")
				if positiveWords[tok] {
					pos++
				}
				if negativeWords[tok] {
					neg++
				}
			}
			return rec.WithField("sentiment", adm.Double(sentimentScore(pos, neg))), nil
		},
	}}
}

type sentimentFunc struct{ FuncRecordFunction }

// ApplyEncoded implements EncodedRecordFunction.
func (f *sentimentFunc) ApplyEncoded(rec []byte) ([]byte, error) {
	if text, ok := stringField(rec, "message_text"); ok {
		var score [9]byte
		score[0] = byte(adm.TagDouble)
		binary.LittleEndian.PutUint64(score[1:], math.Float64bits(encodedSentiment(text)))
		if out, err := adm.AppendWithField(nil, rec, "sentiment", score[:]); err == nil {
			return out, nil
		}
	}
	return applyDecoded(f, rec)
}

// sentimentScore is the share of positive words among the lexicon's words in
// a text, 0.5 when it has none.
func sentimentScore(pos, neg int) float64 {
	if pos+neg == 0 {
		return 0.5
	}
	return float64(pos) / float64(pos+neg)
}

// SpinFunction returns a CPU-bound synthetic UDF: a busy-spin loop of the
// given iteration count per record, exactly the construction §5.7.2 uses to
// vary %OVERLAP between cascaded feeds. The record passes through annotated
// with a spun field so downstream stages can verify application.
func SpinFunction(name string, iterations int) RecordFunction {
	return &FuncRecordFunction{
		FuncName: name,
		Fn: func(rec *adm.Record) (*adm.Record, error) {
			var acc int64
			for i := 0; i < iterations; i++ {
				acc += int64(i)
			}
			_ = acc
			return rec.WithField("spun_"+name, adm.Int64(int64(iterations))), nil
		},
	}
}

// DelayFunction returns a latency-bound synthetic UDF: processing each
// record "costs" perRecord of wall-clock time, charged per frame. Because
// the cost is latency rather than CPU, adding compute partitions increases
// aggregate throughput even on a single-CPU host — the substitution this
// repository uses for the paper's scalability and elasticity experiments
// (see DESIGN.md).
func DelayFunction(name string, perRecord time.Duration) RecordFunction {
	return &FuncRecordFunction{
		FuncName: name,
		Delay:    perRecord,
		Fn: func(rec *adm.Record) (*adm.Record, error) {
			return rec, nil
		},
	}
}

// FailEveryN returns a UDF that raises a soft failure for every n-th record
// it sees; used by the Chapter 6 soft-failure tests and examples.
func FailEveryN(name string, n int) RecordFunction {
	var mu sync.Mutex
	count := 0
	return &FuncRecordFunction{
		FuncName: name,
		Fn: func(rec *adm.Record) (*adm.Record, error) {
			mu.Lock()
			count++
			c := count
			mu.Unlock()
			if n > 0 && c%n == 0 {
				return nil, fmt.Errorf("%s: synthetic runtime exception on record %d", name, c)
			}
			return rec, nil
		},
	}
}
