package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// manifest is the on-disk index shape.
type manifest struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// readManifest loads dir's manifest; a missing file is an empty store.
func readManifest(dir string) (manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("store: reading manifest: %w", err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return m, fmt.Errorf("store: manifest is not valid JSON: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("store: manifest version %d, want %d", m.Version, manifestVersion)
	}
	return m, nil
}

// The manifest decoder is schema-specific: decodeManifest parses the
// canonical shape json.MarshalIndent(m, "", "  ") writes directly and
// hands every other input to encoding/json. It is pinned against
// encoding/json by FuzzManifestCodec and the testdata/manifest-v1.json
// fixture.

// decodeManifest decodes raw to exactly what json.Unmarshal would, with
// the same error: the canonical shape is parsed directly and every other
// input goes to encoding/json.
func decodeManifest(raw []byte) (manifest, error) {
	if m, ok := parseManifest(raw); ok {
		return m, nil
	}
	var m manifest
	err := json.Unmarshal(raw, &m)
	return m, err
}

// parseManifest is the fast path. It accepts JSON whitespace anywhere,
// the manifest's exact keys in any order (each at most once), strings
// of printable ASCII without escapes, integers of at most 18 digits,
// times Time.UnmarshalJSON accepts, and "entries": null. Anything else
// — escapes, non-ASCII, unknown or differently-cased keys, duplicates,
// other nulls, non-integer numbers, trailing bytes — reports !ok, so the
// caller falls back to encoding/json.
func parseManifest(raw []byte) (manifest, bool) {
	p := parser{b: raw}
	var m manifest
	var seen uint8
	p.ws()
	ok := p.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "version":
			bit = 1 << 0
			m.Version, ok = p.num()
		case "entries":
			bit, ok = 1<<1, p.entries(&m.Entries)
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	p.ws()
	return m, ok && p.i == len(p.b)
}

// parser is parseManifest's cursor over the raw manifest.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume advances past c if it is next.
func (p *parser) consume(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object walks one JSON object, calling field with the cursor on each
// key's value; field reports false to abandon the fast path.
func (p *parser) object(field func(key []byte) bool) bool {
	if !p.consume('{') {
		return false
	}
	p.ws()
	if p.consume('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.consume(':') {
			return false
		}
		p.ws()
		if !field(key) {
			return false
		}
		p.ws()
		if p.consume('}') {
			return true
		}
		if !p.consume(',') {
			return false
		}
		p.ws()
	}
}

// str returns the contents of a string of printable ASCII with no
// escapes.
func (p *parser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// num64 parses an integer of at most 18 digits, which cannot overflow;
// longer ones go to encoding/json.
func (p *parser) num64() (int64, bool) {
	neg := p.consume('-')
	start := p.i
	var v int64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		v = v*10 + int64(p.b[p.i]-'0')
		p.i++
	}
	n := p.i - start
	if n == 0 || n > 18 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// num parses an integer that fits the platform's int.
func (p *parser) num() (int, bool) {
	v, ok := p.num64()
	return int(v), ok && int64(int(v)) == v
}

// entries parses the entries array (or null) into *es.
func (p *parser) entries(es *[]Entry) bool {
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	if !p.consume('[') {
		return false
	}
	*es = make([]Entry, 0, bytes.Count(p.b, []byte(`"id"`)))
	p.ws()
	if p.consume(']') {
		return true
	}
	for {
		var e Entry
		if !p.entry(&e) {
			return false
		}
		*es = append(*es, e)
		p.ws()
		if p.consume(']') {
			return true
		}
		if !p.consume(',') {
			return false
		}
		p.ws()
	}
}

// entry parses one entry object.
func (p *parser) entry(e *Entry) bool {
	var seen uint16
	return p.object(func(key []byte) bool {
		var bit uint16
		var ok bool
		switch string(key) {
		case "id":
			bit, ok = 1<<0, p.text(&e.ID)
		case "app":
			bit, ok = 1<<1, p.text(&e.App)
		case "machine":
			bit, ok = 1<<2, p.text(&e.Machine)
		case "scale":
			bit, ok = 1<<3, p.text(&e.Scale)
		case "seed":
			bit = 1 << 4
			e.Seed, ok = p.num64()
		case "label":
			bit, ok = 1<<5, p.text(&e.Label)
		case "cpus":
			bit = 1 << 6
			e.CPUs, ok = p.num()
		case "records":
			bit = 1 << 7
			e.Records, ok = p.num64()
		case "bytes":
			bit = 1 << 8
			e.Bytes, ok = p.num64()
		case "start":
			bit, ok = 1<<9, p.timestamp(&e.Start)
		case "end":
			bit, ok = 1<<10, p.timestamp(&e.End)
		case "digest":
			bit, ok = 1<<11, p.text(&e.Digest)
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
}

// text parses a plain string value into *s.
func (p *parser) text(s *string) bool {
	v, ok := p.str()
	*s = string(v)
	return ok
}

// timestamp parses a time value as encoding/json does: Time.UnmarshalJSON
// over the quoted bytes.
func (p *parser) timestamp(t *time.Time) bool {
	start := p.i
	if _, ok := p.str(); !ok {
		return false
	}
	return t.UnmarshalJSON(p.b[start:p.i]) == nil
}
