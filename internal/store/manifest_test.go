package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"
)

const fixturePath = "testdata/manifest-v1.json"

// checkEncode returns json.MarshalIndent(m)'s bytes, as commitManifest
// writes them, and asserts decodeManifest reads them back as
// json.Unmarshal does. It returns nil when m does not marshal.
func checkEncode(t *testing.T, m manifest) []byte {
	t.Helper()
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil
	}
	dec, err := decodeManifest(enc)
	var ref manifest
	if rerr := json.Unmarshal(enc, &ref); err != nil || rerr != nil {
		t.Fatalf("decoding json.MarshalIndent output: %v (json.Unmarshal: %v)", err, rerr)
	}
	if !reflect.DeepEqual(dec, ref) {
		t.Fatalf("decodeManifest = %+v, json.Unmarshal = %+v", dec, ref)
	}
	return enc
}

// plainJSON reports whether encoding/json writes s unescaped: printable
// ASCII other than the quote, the backslash and the HTML-escaped <, >
// and &.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// checkDecode asserts that whenever the fast path accepts raw,
// json.Unmarshal accepts it too and yields a DeepEqual manifest, and
// that decodeManifest's result and error are json.Unmarshal's.
func checkDecode(t *testing.T, raw []byte) {
	t.Helper()
	var ref manifest
	rerr := json.Unmarshal(raw, &ref)
	if fast, ok := parseManifest(raw); ok {
		if rerr != nil {
			t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", raw, rerr)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path on %q = %+v, json.Unmarshal = %+v", raw, fast, ref)
		}
	}
	dec, err := decodeManifest(raw)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("decodeManifest(%q) error %v, json.Unmarshal error %v", raw, err, rerr)
	}
	if err == nil && !reflect.DeepEqual(dec, ref) {
		t.Fatalf("decodeManifest(%q) = %+v, json.Unmarshal = %+v", raw, dec, ref)
	}
}

// FuzzManifestCodec pins the decoder to encoding/json. For arbitrary
// entry field values json.MarshalIndent's bytes must decode back to the
// manifest (and take the fast path when every field is plain), and for
// arbitrary input bytes the decoder must agree with json.Unmarshal, fast
// path or not.
func FuzzManifestCodec(f *testing.F) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatal(err)
	}
	canonical := `{"version": 1, "entries": [{"id": "a", "cpus": 1, "records": 2, "bytes": 3, ` +
		`"start": "2026-01-02T03:04:05Z", "end": "2026-01-02T03:04:05.5Z", "digest": "fnv64a:00"}]}`
	seeds := []string{
		string(fixture),
		canonical,
		`{"version": 1, "entries": null}`,
		`{"version": 1, "entries": []}`,
		`{"version": 1}`,
		`{}`,
		` {"version":1,"entries":[]} ` + "\n",
		`{"version": 01, "entries": []}`,                   // leading zero
		`{"version": -, "entries": []}`,                    // lone minus
		`{"version": -0, "entries": []}`,                   // negative zero
		`{"version": 1.0, "entries": []}`,                  // non-integer
		`{"version": 1e0, "entries": []}`,                  // exponent
		`{"version": 99999999999999999999, "entries": []}`, // overflows int64
		`{"version": 1, "entries": [{"records": 999999999999999999}]}`,
		`{"version": 1, "entries": [{"records": 9223372036854775807}]}`,
		`{"version": 1, "entries": [{"records": 9223372036854775808}]}`, // overflows int64
		`{"version": 1, "version": 2, "entries": []}`,                   // duplicate key
		`{"version": 1, "entries": [{"id": "a", "app": "x"}], "entries": [{"id": "b"}]}`,
		`{"version": 1, "entries": [{"id": "a", "id": "b"}]}`,
		`{"version": 1, "entries": []} x`, // trailing bytes
		`{"version": 1, "entries": []}{}`,
		"{\"version\": 1, \"entries\": [{\"id\": \"a\x01b\"}]}",    // control character
		"{\"version\": 1, \"entries\": [{\"id\": \"a\tb\"}]}",      // raw tab
		`{"version": 1, "entries": [{"id": "aA", "label": "\n"}]}`, // escapes
		`{"version": 1, "entries": [{"id": "café"}]}`,              // non-ASCII
		"{\"version\": 1, \"entries\": [{\"id\": \"\xff\"}]}",      // invalid UTF-8
		`{"VERSION": 1, "Entries": [{"Id": "a"}]}`,                 // case-folded keys
		`{"version": 1, "entries": [{"id": "a", "extra": true}]}`,  // unknown key
		`{"version": 1, "entries": [{"id": null, "start": null}]}`, // nulls
		`{"version": null, "entries": [null]}`,
		`{"version": 1, "entries": [{"start": "2026-13-01T00:00:00Z"}]}`, // bad time
		`{"version": 1, "entries": [{"start": "2026-01-01T00:00:00+01:00"}]}`,
		`{"version": 1, "entries": [{"cpus": "4"}]}`, // type mismatch
		`{"version": 1, "entries": [{"cpus": 4,}]}`,  // trailing comma
		`{"version": 1, "entries": [`,
		``,
		`null`,
	}
	for i, s := range seeds {
		f.Add("oltp-small-123", "oltp", "multi-chip", "small", "unit", "fnv64a:0123456789abcdef",
			int64(42), int64(54032), int64(212907), 16, int64(1_773_480_413), int64(1_773_480_415), int32(589793238), int16(0), uint8(i), []byte(s))
	}
	f.Add("id<&>", "", "", "", "café —  ", "", int64(0), int64(-1), int64(1)<<62, -3,
		int64(-62_135_596_801), int64(253_402_300_800), int32(-1), int16(90), uint8(3), []byte(canonical))
	f.Fuzz(func(t *testing.T, id, app, machine, scale, label, digest string,
		seed, records, size int64, cpus int, startSec, endSec int64, nsec int32, zoneMin int16, shape uint8, raw []byte) {
		zone := time.UTC
		if zoneMin != 0 {
			zone = time.FixedZone("", int(zoneMin)*60)
		}
		e := Entry{ID: id, App: app, Machine: machine, Scale: scale, Seed: seed, Label: label,
			CPUs: cpus, Records: records, Bytes: size, Digest: digest,
			Start: time.Unix(startSec, int64(nsec)).In(zone), End: time.Unix(endSec, 0).In(zone)}
		bare := Entry{ID: id + "-2", CPUs: cpus, Records: records, Bytes: size, Start: e.Start, End: e.End, Digest: digest}
		m := manifest{Version: manifestVersion}
		switch shape % 4 {
		case 1:
			m.Entries = []Entry{}
		case 2:
			m.Entries = []Entry{e}
		case 3:
			m.Entries = []Entry{e, bare}
		}
		if enc := checkEncode(t, m); enc != nil {
			fields := []string{id, app, machine, scale, label, digest}
			plain, valid := true, true
			for _, s := range fields {
				plain = plain && plainJSON(s)
				valid = valid && utf8.ValidString(s)
			}
			for _, v := range []int64{seed, records, size, int64(cpus)} {
				plain = plain && v > -1e18 && v < 1e18
			}
			if _, ok := parseManifest(enc); plain && !ok {
				t.Fatalf("fast path refused plain json.MarshalIndent output %q", enc)
			}
			if dec, _ := decodeManifest(enc); valid && zone == time.UTC && !reflect.DeepEqual(dec, m) {
				t.Fatalf("round trip = %+v, want %+v", dec, m)
			}
		}
		checkDecode(t, raw)
	})
}

// TestManifestFixture pins the decoder to a manifest written by
// json.MarshalIndent before the decoder existed: an omitted seed, labels
// that need HTML and U+2028 escaping, a non-ASCII label, and a 1<<40
// byte count. It must decode to json.Unmarshal's result and re-encode to
// the same bytes.
func TestManifestFixture(t *testing.T) {
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, raw)
	m, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	var seedless, html, nonASCII bool
	for _, e := range m.Entries {
		seedless = seedless || (e.Seed == 0 && e.App != "")
		html = html || strings.ContainsAny(e.Label, "<>&")
		nonASCII = nonASCII || utf8.ValidString(e.Label) && strings.ContainsFunc(e.Label, func(r rune) bool { return r > unicode.MaxASCII })
	}
	if !seedless || !html || !nonASCII || len(m.Entries) != 5 {
		t.Fatalf("fixture lost coverage: %d entries, seedless=%v html=%v nonASCII=%v", len(m.Entries), seedless, html, nonASCII)
	}
	enc := checkEncode(t, m)
	if !bytes.Equal(enc, raw) {
		t.Fatalf("re-encoded fixture differs:\n got %q\nwant %q", enc, raw)
	}
}

// TestReadManifestErrors pins readManifest's messages for a manifest
// that is not JSON and for one of the wrong version.
func TestReadManifestErrors(t *testing.T) {
	for _, tc := range []struct{ raw, want string }{
		{`{"version": 1, "entries": [`, "store: manifest is not valid JSON: unexpected end of JSON input"},
		{`{"version": 01}`, "store: manifest is not valid JSON: invalid character '1' after object key:value pair"},
		{`{"version": 1} x`, "store: manifest is not valid JSON: invalid character 'x' after top-level value"},
		{`{"version": 2, "entries": []}`, "store: manifest version 2, want 1"},
		{`{"entries": []}`, "store: manifest version 0, want 1"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(tc.raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readManifest(dir); err == nil || err.Error() != tc.want {
			t.Errorf("readManifest(%q) error %v, want %q", tc.raw, err, tc.want)
		}
	}
}
