// Package dict is the preset-dictionary service behind per-request
// dictionary negotiation: a registry of named dictionaries the serving
// layer resolves by ID (HTTP X-Lzss-Dict header, framed-TCP dict flag
// field). A dictionary is trained per content class — the same key
// schemas, boilerplate and value vocabularies arrive over and over, so
// presetting them as LZSS history makes even a single short record
// compress well (the ratio win of shared context on repetitive
// payloads).
//
// Built-in classes are trained from internal/workload generators
// (wiki / CAN-log / JSON-ish), deterministically: the same class name
// always yields byte-identical dictionary content, so every node in a
// fleet resolves "wiki" to the same bytes and streams compressed on
// one node decode on any other.
package dict

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lzssfpga/internal/checksum"
	"lzssfpga/internal/workload"
)

// MaxNameLen bounds a dictionary ID: the framed-TCP dict field carries
// the name length in one byte and the protocol caps it well below 255
// to keep the field from becoming a payload channel.
const MaxNameLen = 32

// ErrUnknown reports a negotiation naming a dictionary the registry
// does not hold. The serving layer maps it onto StatusUnknownDict /
// HTTP 400 — a deterministic client error, never a retryable one.
var ErrUnknown = fmt.Errorf("dict: unknown dictionary")

// Info describes one registered dictionary for the /dicts listing.
type Info struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
	// Adler is the dictionary's Adler-32 — the DICTID any stream
	// compressed against it carries (RFC 1950 §2.2), so clients can
	// match streams to dictionaries offline.
	Adler uint32 `json:"adler32"`
	// Hits counts requests that negotiated this dictionary since the
	// registry was built (per-dictionary counters live here, not in the
	// metric namespace).
	Hits int64 `json:"hits"`
}

// entry is one registered dictionary; hits is bumped lock-free on the
// serving path.
type entry struct {
	bytes []byte
	adler uint32
	hits  atomic.Int64
}

// Registry holds named dictionaries. Registration happens at startup;
// the serving path only reads, under an RLock.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// ValidName reports whether name is a legal dictionary ID: 1..32
// characters from [a-z0-9-]. The alphabet is deliberately tiny — the
// ID travels in an HTTP header and a wire field, and is echoed back.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > MaxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// Add registers data under name. The bytes are copied; duplicate names
// and invalid IDs are rejected.
func (r *Registry) Add(name string, data []byte) error {
	if !ValidName(name) {
		return fmt.Errorf("dict: invalid dictionary name %q (want 1..%d chars of [a-z0-9-])", name, MaxNameLen)
	}
	if len(data) == 0 {
		return fmt.Errorf("dict: dictionary %q is empty", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return fmt.Errorf("dict: dictionary %q already registered", name)
	}
	r.byName[name] = &entry{bytes: append([]byte(nil), data...), adler: checksum.Adler32Sum(data)}
	registered.Add(1)
	return nil
}

// Resolve is the negotiation lookup: it returns the dictionary bytes
// for name and records the request in both the aggregate dict_*
// counters and the per-dictionary hit count. An unknown name returns
// ErrUnknown (wrapped with the name). The returned slice is shared
// read-only.
func (r *Registry) Resolve(name string) ([]byte, error) {
	if k := dictObs.Load(); k != nil {
		k.requests.Inc()
	}
	r.mu.RLock()
	e, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		if k := dictObs.Load(); k != nil {
			k.unknown.Inc()
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	e.hits.Add(1)
	if k := dictObs.Load(); k != nil {
		k.hits.Inc()
	}
	return e.bytes, nil
}

// Peek returns the dictionary bytes for name without touching any
// counter (verification and test paths).
func (r *Registry) Peek(name string) ([]byte, bool) {
	r.mu.RLock()
	e, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.bytes, true
}

// List returns the registered dictionaries sorted by name, with live
// hit counts — the /dicts endpoint body.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.byName))
	for name, e := range r.byName {
		out = append(out, Info{Name: name, Bytes: len(e.bytes), Adler: e.adler, Hits: e.hits.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of registered dictionaries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// builtinSize is the trained size of a built-in class dictionary:
// 8 KiB fits entirely inside every serving window (the smallest is the
// paper's 4 KiB minus one — the compressor caps at Window-1) while
// carrying several thousand schema/boilerplate instances.
const builtinSize = 8 << 10

// builtinSeed pins the training corpora: built-ins must be
// byte-identical on every node and across releases, or fleet members
// would emit streams their peers reject by DICTID.
const builtinSeed = 424243

// Builtin trains and returns one built-in class dictionary: the
// trailing builtinSize bytes of a deterministic workload corpus of the
// class, so the dictionary looks like "what the stream recently
// carried" — exactly the history a continuing stream would have.
func Builtin(class string) ([]byte, error) {
	switch class {
	case "wiki", "can", "json":
	default:
		return nil, fmt.Errorf("dict: unknown builtin class %q (want wiki, can or json)", class)
	}
	gen, err := workload.ByName(class)
	if err != nil {
		return nil, err
	}
	corpus := gen(4*builtinSize, builtinSeed)
	return corpus[len(corpus)-builtinSize:], nil
}

// BuiltinClasses lists the trainable class names.
func BuiltinClasses() []string { return []string{"can", "json", "wiki"} }

// NewBuiltinRegistry builds a registry holding the named built-in
// classes ("wiki,can,json" subsets; an empty slice means all).
func NewBuiltinRegistry(classes ...string) (*Registry, error) {
	if len(classes) == 0 {
		classes = BuiltinClasses()
	}
	r := NewRegistry()
	for _, c := range classes {
		d, err := Builtin(c)
		if err != nil {
			return nil, err
		}
		if err := r.Add(c, d); err != nil {
			return nil, err
		}
	}
	return r, nil
}
