package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/sinktest"
)

// decodeAll runs dec over its stream and returns what reached the sink.
func decodeAll(t *testing.T, dec *Decoder) (trace.Trace, Trailer) {
	t.Helper()
	var got trace.Trace
	tr, err := dec.Run(&got)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := dec.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
	return got, tr
}

// TestDecoderReset reuses one Decoder across streams of different CPU
// counts, after a failed decode and after a frame hook was installed:
// each stream must decode exactly as it does on a fresh Decoder, with no
// stream state — delta chain, error, hook, range, trailer — carried over.
func TestDecoderReset(t *testing.T) {
	funcs := []FuncMeta{{Name: "<unknown>"}, {Name: "mutex_enter", Category: trace.CatSync}}
	a := encodeStream(t, sinktest.Misses(frameRecords+500, 4), sinktest.Header(frameRecords+500, 4), funcs)
	b := encodeStream(t, sinktest.Misses(3000, 16), sinktest.Header(3000, 16), nil)
	bad := append([]byte(nil), a...)
	bad[len(bad)/2] ^= 0x40

	wantA, trA := decodeAll(t, NewDecoder(bytes.NewReader(a)))
	wantB, trB := decodeAll(t, NewDecoder(bytes.NewReader(b)))

	dec := NewDecoder(bytes.NewReader(a))
	hooked := 0
	dec.SetFrameHook(func(int64, int64) error { hooked++; return nil })
	if _, err := dec.RunRange(trace.Discard{}, 10, 20); err != nil {
		t.Fatalf("RunRange: %v", err)
	}
	seen := hooked

	dec.Reset(bytes.NewReader(bad))
	if _, err := dec.Run(trace.Discard{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Run(bit-flipped) = %v, want ErrCorrupt", err)
	}
	for _, c := range []struct {
		raw  []byte
		want trace.Trace
		tr   Trailer
	}{{b, wantB, trB}, {a, wantA, trA}} {
		dec.Reset(bytes.NewReader(c.raw))
		if dec.Symbols().Len() != 1 {
			t.Fatalf("Symbols after Reset: the previous stream's trailer survived")
		}
		got, tr := decodeAll(t, dec)
		if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(tr, c.tr) {
			t.Fatalf("decode after Reset differs from a fresh Decoder's")
		}
	}
	if hooked != seen {
		t.Fatalf("frame hook ran %d times after Reset, want 0", hooked-seen)
	}
}

// TestScanTrailer pins the trailer-only pass: it returns the trailer and
// symbol table Run would, still rejects a CRC-damaged or truncated
// stream, and leaves the record-count check to the decoding pass.
func TestScanTrailer(t *testing.T) {
	const n, cpus = frameRecords*2 + 77, 4
	ms := sinktest.Misses(n, cpus)
	funcs := []FuncMeta{{Name: "<unknown>"}, {Name: "sqlri_exec", Category: trace.CatDBInterpreter}}
	raw := encodeStream(t, ms, sinktest.Header(n, cpus), funcs)

	_, want := decodeAll(t, NewDecoder(bytes.NewReader(raw)))
	dec := NewDecoder(bytes.NewReader(raw))
	tr, err := dec.ScanTrailer()
	if err != nil {
		t.Fatalf("ScanTrailer: %v", err)
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("ScanTrailer trailer %+v, want Run's %+v", tr, want)
	}
	if !reflect.DeepEqual(dec.Symbols().Funcs(), want.SymbolTable().Funcs()) {
		t.Fatalf("Symbols after ScanTrailer disagree with the trailer's table")
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := NewDecoder(bytes.NewReader(flipped)).ScanTrailer(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ScanTrailer(bit-flipped) = %v, want ErrCorrupt", err)
	}
	if _, err := NewDecoder(bytes.NewReader(raw[:len(raw)-3])).ScanTrailer(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ScanTrailer(truncated) = %v, want ErrTruncated", err)
	}

	// A trailer overstating the record count passes the scan, which
	// decodes no record, and fails the decoding pass.
	lying := encodeStream(t, ms, sinktest.Header(n+1, cpus), funcs)
	dec = NewDecoder(bytes.NewReader(lying))
	if _, err := dec.ScanTrailer(); err != nil {
		t.Fatalf("ScanTrailer(miscounted) = %v, want nil", err)
	}
	dec.Reset(bytes.NewReader(lying))
	if _, err := dec.Run(trace.Discard{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Run(miscounted) = %v, want ErrCorrupt", err)
	}
}
