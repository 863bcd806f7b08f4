package wire_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// FuzzDecoder feeds arbitrary bytes to the decoder: it must never panic
// and never over-allocate, and on success its bookkeeping must be
// self-consistent (delivered records match the trailer, exactly one
// Finish).
func FuzzDecoder(f *testing.F) {
	// Seed with valid streams of varying shapes so mutation explores the
	// format's interior, not just the magic check.
	f.Add(encodeStream(f, nil, trace.Header{CPUs: 1}, nil))
	f.Add(encodeStream(f, synthMisses(64, 2, 1), trace.Header{Misses: 64, Instructions: 77, CPUs: 2},
		[]wire.FuncMeta{{Name: "<unknown>"}, {Name: "mutex_enter", Category: trace.CatSync}}))
	f.Add(encodeStream(f, synthMisses(5000, 16, 2), trace.Header{Misses: 5000, Instructions: 1 << 40, CPUs: 16}, nil))
	f.Add([]byte("TSW1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The trailer scan must classify its errors the same way and,
		// on any stream the full decode accepts, find the same trailer.
		scanned, scanErr := wire.NewDecoder(bytes.NewReader(data)).ScanTrailer()
		if scanErr != nil && !errors.Is(scanErr, wire.ErrTruncated) && !errors.Is(scanErr, wire.ErrCorrupt) {
			t.Fatalf("scan error %v wraps neither ErrTruncated nor ErrCorrupt", scanErr)
		}
		var sink recordingSink
		trailer, err := wire.NewDecoder(bytes.NewReader(data)).Run(&sink)
		if err != nil {
			if len(sink.finishes) != 0 {
				t.Fatalf("decoder delivered Finish despite error %v", err)
			}
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error %v wraps neither ErrTruncated nor ErrCorrupt", err)
			}
			return
		}
		if scanErr != nil || !reflect.DeepEqual(scanned, trailer) {
			t.Fatalf("trailer scan (%v) disagrees with the accepting decode", scanErr)
		}
		if len(sink.finishes) != 1 {
			t.Fatalf("successful decode delivered %d Finish calls", len(sink.finishes))
		}
		if sink.finishes[0] != trailer.Header {
			t.Fatalf("Finish header %+v != trailer %+v", sink.finishes[0], trailer.Header)
		}
		if len(sink.misses) != trailer.Header.Misses {
			t.Fatalf("delivered %d records, trailer says %d", len(sink.misses), trailer.Header.Misses)
		}
		for i, m := range sink.misses {
			if m.Class >= trace.NumMissClasses || m.Supplier >= trace.NumSuppliers ||
				int(m.CPU) >= trailer.Header.CPUs {
				t.Fatalf("record %d out of bounds: %+v", i, m)
			}
		}
	})
}
