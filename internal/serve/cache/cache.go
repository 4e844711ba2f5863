// Package cache is the content-addressed result cache shared by the
// carsd daemon and the experiment runner: values are JSON documents
// as json.Marshal writes them, addressed by a canonical SHA-256 key,
// held under a byte budget with LRU eviction, and optionally
// persisted to disk in a corruption-tolerant line format (a damaged
// entry is skipped and recomputed, never a fatal error).
//
// Keys are derived with KeyOf from a key-spec value: the spec is
// marshalled as canonical JSON (encoding/json sorts map keys; specs
// should be flat structs of scalars so field order is fixed by the
// type) and hashed. Two requests agree on a key exactly when their
// specs marshal identically — the schema version belongs in the spec.
package cache

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key addresses one cache entry by content hash of its key-spec.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf hashes a key-spec value into a Key (canonical JSON, SHA-256).
func KeyOf(spec any) (Key, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return Key{}, fmt.Errorf("cache: key spec: %w", err)
	}
	return sha256.Sum256(data), nil
}

// Stats is a snapshot of the cache's counters and footprint.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
	Entries   int
	Bytes     int64
	Budget    int64
}

type entry struct {
	key Key
	val []byte
}

// Cache is a byte-budgeted LRU of content-addressed blobs.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recent
	index  map[Key]*list.Element

	hits, misses, puts, evictions uint64
}

// New builds a cache with the given byte budget. A non-positive
// budget means unlimited (the experiment runner's in-memory memo).
func New(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes, ll: list.New(), index: map[Key]*list.Element{}}
}

// Get returns the value for k, marking it most-recently used. The
// returned slice is shared — callers must not mutate it.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Contains reports whether k is cached without touching recency or
// the hit/miss counters.
func (c *Cache) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[k]
	return ok
}

// Put stores v under k, evicting least-recently-used entries to stay
// within the byte budget. A value larger than the whole budget is not
// cached. The cache takes ownership of v, which must be a json.Marshal
// result: carsd writes stored values into its responses as they are.
func (c *Cache) Put(k Key, v []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.budget > 0 && int64(len(v)) > c.budget {
		return
	}
	if el, ok := c.index[k]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(v)) - int64(len(e.val))
		e.val = v
		c.ll.MoveToFront(el)
	} else {
		c.index[k] = c.ll.PushFront(&entry{key: k, val: v})
		c.bytes += int64(len(v))
	}
	for c.budget > 0 && c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.index, e.key)
		c.bytes -= int64(len(e.val))
		c.evictions++
	}
}

// Len is the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes is the cached payload footprint.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes, Budget: c.budget,
	}
}

// Range calls fn for every entry from most- to least-recently used,
// stopping when fn returns false. The value slice must not be
// mutated. Recency and counters are untouched.
func (c *Cache) Range(fn func(k Key, v []byte) bool) {
	c.mu.Lock()
	type kv struct {
		k Key
		v []byte
	}
	snap := make([]kv, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		snap = append(snap, kv{e.key, e.val})
	}
	c.mu.Unlock()
	for _, e := range snap {
		if !fn(e.k, e.v) {
			return
		}
	}
}

// Disk format: one JSON object per line. The first line is a header
// {"carsCache":1}; each entry line carries the key, a SHA-256 of the
// payload, and the base64 payload. Loading is corruption-tolerant by
// construction — any line that fails to parse, whose key is
// malformed, whose checksum disagrees, or whose payload is not a JSON
// document in json.Marshal's form is skipped.

const diskVersion = 1

type diskHeader struct {
	CarsCache int `json:"carsCache"`
}

type diskEntry struct {
	K string `json:"k"` // key, hex
	S string `json:"s"` // sha256(payload), hex
	V string `json:"v"` // payload, base64
}

// SaveFile persists every entry (most-recent first) atomically and
// durably: it writes a temp file beside path, syncs it, renames it
// over path and syncs the directory, so a crash leaves either the old
// file or the new one. A temp file left by an interrupted save is
// overwritten, and LoadFile never reads it.
func (c *Cache) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	werr := enc.Encode(diskHeader{CarsCache: diskVersion})
	c.Range(func(k Key, v []byte) bool {
		if werr != nil {
			return false
		}
		sum := sha256.Sum256(v)
		werr = enc.Encode(diskEntry{
			K: k.String(),
			S: hex.EncodeToString(sum[:]),
			V: base64.StdEncoding.EncodeToString(v),
		})
		return true
	})
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: save %s: %w", path, werr)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("cache: save %s: %w", path, err)
	}
	return nil
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// marshalForm reports whether v is one JSON document exactly as
// json.Marshal writes it: valid, compact, and with <, >, &, U+2028
// and U+2029 escaped. Those are the bytes json.Encoder would write
// for v as a json.RawMessage, so carsd can send them unchanged.
func marshalForm(v []byte) bool {
	var compact bytes.Buffer
	return json.Compact(&compact, v) == nil && bytes.Equal(compact.Bytes(), v) &&
		!bytes.ContainsAny(v, "<>&\u2028\u2029")
}

// LoadFile merges entries from a prior SaveFile into the cache,
// returning how many loaded and how many were skipped as damaged. A
// missing file loads nothing; a file with a foreign or damaged header
// is treated as wholly damaged. Only I/O failures are errors.
func (c *Cache) LoadFile(path string) (loaded, skipped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	if !sc.Scan() {
		return 0, 0, sc.Err()
	}
	var hdr diskHeader
	if json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.CarsCache != diskVersion {
		return 0, 1, nil
	}
	for sc.Scan() {
		var e diskEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			skipped++
			continue
		}
		kb, kerr := hex.DecodeString(e.K)
		v, verr := base64.StdEncoding.DecodeString(e.V)
		if kerr != nil || verr != nil || len(kb) != sha256.Size {
			skipped++
			continue
		}
		sum := sha256.Sum256(v)
		if hex.EncodeToString(sum[:]) != e.S || !marshalForm(v) {
			skipped++
			continue
		}
		var k Key
		copy(k[:], kb)
		if !c.Contains(k) {
			c.Put(k, v)
			loaded++
		}
	}
	// A torn final line (partial write) surfaces as a scan error only
	// when the line exceeds the buffer; treat residue as damage, not
	// failure.
	if serr := sc.Err(); serr != nil && loaded == 0 && skipped == 0 {
		return 0, 0, serr
	}
	return loaded, skipped, nil
}
