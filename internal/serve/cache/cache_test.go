package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func key(s string) Key {
	k, err := KeyOf(map[string]string{"k": s})
	if err != nil {
		panic(err)
	}
	return k
}

func TestKeyOfIsCanonical(t *testing.T) {
	type spec struct {
		A string `json:"a"`
		B int    `json:"b"`
	}
	k1, err1 := KeyOf(spec{A: "x", B: 2})
	k2, err2 := KeyOf(spec{A: "x", B: 2})
	k3, err3 := KeyOf(spec{A: "x", B: 3})
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if k1 != k2 {
		t.Fatal("identical specs hash differently")
	}
	if k1 == k3 {
		t.Fatal("distinct specs collide")
	}
	if len(k1.String()) != 64 {
		t.Fatalf("key hex = %q", k1.String())
	}
}

func TestGetPutStats(t *testing.T) {
	c := New(0)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("a"), []byte("hello"))
	v, ok := c.Get(key("a"))
	if !ok || string(v) != "hello" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v", st)
	}
	// Overwrite adjusts the footprint.
	c.Put(key("a"), []byte("hi"))
	if c.Bytes() != 2 || c.Len() != 1 {
		t.Fatalf("after overwrite: bytes=%d len=%d", c.Bytes(), c.Len())
	}
}

// TestLRUEviction fills past the byte budget and checks the
// least-recently-used entries leave first.
func TestLRUEviction(t *testing.T) {
	c := New(30) // room for three 10-byte values
	val := func(s string) []byte { return []byte(s + "123456789")[:10] }
	c.Put(key("a"), val("a"))
	c.Put(key("b"), val("b"))
	c.Put(key("c"), val("c"))
	if c.Len() != 3 || c.Bytes() != 30 {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// Touch "a" so "b" is now least-recently used.
	c.Get(key("a"))
	c.Put(key("d"), val("d"))
	if c.Contains(key("b")) {
		t.Fatal("LRU entry b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(key(k)) {
			t.Fatalf("entry %s evicted wrongly", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 30 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(10)
	c.Put(key("big"), make([]byte, 11))
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized value cached: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestEvictionCascade(t *testing.T) {
	c := New(10)
	c.Put(key("a"), []byte("aaaa"))
	c.Put(key("b"), []byte("bbbb"))
	// A single large insert evicts both.
	c.Put(key("c"), make([]byte, 9))
	if c.Len() != 1 || !c.Contains(key("c")) {
		t.Fatalf("cascade failed: len=%d", c.Len())
	}
	if c.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.cache")
	c := New(0)
	for i := 0; i < 5; i++ {
		// JSON numbers 1, 22, 333, …: LoadFile admits only JSON.
		c.Put(key(fmt.Sprint(i)), bytes.Repeat([]byte{'1' + byte(i)}, i+1))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	c2 := New(0)
	loaded, skipped, err := c2.LoadFile(path)
	if err != nil || loaded != 5 || skipped != 0 {
		t.Fatalf("load = %d, %d, %v", loaded, skipped, err)
	}
	for i := 0; i < 5; i++ {
		v, ok := c2.Get(key(fmt.Sprint(i)))
		if !ok || len(v) != i+1 || v[0] != '1'+byte(i) {
			t.Fatalf("entry %d = %v, %v", i, v, ok)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	c := New(0)
	loaded, skipped, err := c.LoadFile(filepath.Join(t.TempDir(), "none"))
	if loaded != 0 || skipped != 0 || err != nil {
		t.Fatalf("missing file = %d, %d, %v", loaded, skipped, err)
	}
}

// TestLoadCorruptLines damages entries every way the loader guards
// against; each bad line is skipped, the good ones load, and nothing
// is a fatal error.
func TestLoadCorruptLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.cache")
	c := New(0)
	c.Put(key("good1"), []byte(`"one"`))
	c.Put(key("good2"), []byte(`"two"`))
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Corrupt the second entry line — good1, since SaveFile writes
	// most-recent-first — with a checksum-breaking payload edit, and
	// append: junk JSON, bad hex key, bad base64, truncated object.
	lines[2] = strings.Replace(lines[2], `"v":"`, `"v":"QkFE`, 1)
	lines = append(lines,
		"not json at all",
		`{"k":"zz","s":"00","v":"aGk="}`,
		`{"k":"`+strings.Repeat("ab", 32)+`","s":"00","v":"%%%"}`,
		`{"k":"`+strings.Repeat("cd", 32)+`","s":`,
	)
	os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)

	c2 := New(0)
	loaded, skipped, err := c2.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || skipped != 5 {
		t.Fatalf("loaded=%d skipped=%d, want 1 and 5", loaded, skipped)
	}
	if _, ok := c2.Get(key("good2")); !ok {
		t.Fatal("healthy entry lost")
	}
	if _, ok := c2.Get(key("good1")); ok {
		t.Fatal("corrupted entry served")
	}
}

func TestLoadForeignHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cache")
	os.WriteFile(path, []byte("junk\n"), 0o644)
	c := New(0)
	loaded, skipped, err := c.LoadFile(path)
	if err != nil || loaded != 0 || skipped != 1 {
		t.Fatalf("foreign header = %d, %d, %v", loaded, skipped, err)
	}
}

func TestLoadRespectsBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cache")
	c := New(0)
	for i := 0; i < 10; i++ {
		c.Put(key(fmt.Sprint(i)), []byte("1234567890"))
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	small := New(35)
	if _, _, err := small.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if small.Bytes() > 35 || small.Len() != 3 {
		t.Fatalf("after load: %d bytes in %d entries, want 3 entries within 35 bytes", small.Bytes(), small.Len())
	}
}

// entryLine is one disk entry line holding v under k with a correct
// checksum.
func entryLine(t *testing.T, k Key, v []byte) string {
	t.Helper()
	sum := sha256.Sum256(v)
	line, err := json.Marshal(diskEntry{K: k.String(), S: hex.EncodeToString(sum[:]), V: base64.StdEncoding.EncodeToString(v)})
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// TestLoadSkipsNonMarshalPayloads: an entry whose checksum holds but
// whose payload is not a JSON document as json.Marshal writes it is
// damage, since carsd would send those bytes unchanged as a response's
// result. Each such entry is skipped and its key misses; a payload in
// json.Marshal's form beside them loads.
func TestLoadSkipsNonMarshalPayloads(t *testing.T) {
	good, err := json.Marshal(map[string]string{"s": "<a & b>\u2028"})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{
		"not json":     "not json",
		"empty":        "",
		"two values":   "1 2",
		"not compact":  `{"a": 1}`,
		"padded":       " 1",
		"raw <":        `"<"`,
		"raw &":        `"&"`,
		"raw >":        `">"`,
		"raw U+2028":   "\"\u2028\"",
		"raw U+2029":   "\"\u2029\"",
		"unterminated": `{"a":1`,
	}
	lines := []string{`{"carsCache":1}`, entryLine(t, key("good"), good)}
	for name, v := range bad {
		lines = append(lines, entryLine(t, key(name), []byte(v)))
	}
	path := filepath.Join(t.TempDir(), "c.cache")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(0)
	loaded, skipped, err := c.LoadFile(path)
	if err != nil || loaded != 1 || skipped != len(bad) {
		t.Fatalf("load = %d, %d, %v; want 1, %d, nil", loaded, skipped, err, len(bad))
	}
	if v, ok := c.Get(key("good")); !ok || !bytes.Equal(v, good) {
		t.Fatalf("good entry = %q, %v", v, ok)
	}
	for name := range bad {
		if _, ok := c.Get(key(name)); ok {
			t.Errorf("%s payload loaded", name)
		}
	}
}

// TestSaveReplacesStaleTemp: a temp file left by an interrupted save
// is never read by LoadFile, and the next SaveFile replaces it.
func TestSaveReplacesStaleTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.cache")
	c := New(0)
	c.Put(key("a"), []byte(`"a"`))
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	stale := `{"carsCache":1}` + "\n" + entryLine(t, key("stale"), []byte(`"stale"`)) + "\n" + `{"k":"torn`
	if err := os.WriteFile(path+".tmp", []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New(0)
	loaded, skipped, err := c2.LoadFile(path)
	if err != nil || loaded != 1 || skipped != 0 || c2.Contains(key("stale")) {
		t.Fatalf("load beside a stale temp file = %d, %d, %v (stale loaded: %v)", loaded, skipped, err, c2.Contains(key("stale")))
	}
	c2.Put(key("b"), []byte(`"b"`))
	if err := c2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file after save: %v", err)
	}
	c3 := New(0)
	loaded, skipped, err = c3.LoadFile(path)
	if err != nil || loaded != 2 || skipped != 0 || !c3.Contains(key("a")) || !c3.Contains(key("b")) {
		t.Fatalf("load after save = %d, %d, %v", loaded, skipped, err)
	}
}

// TestConcurrentAccess is the -race soak: readers, writers, and Range
// all running together.
func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprint(i % 37))
				switch i % 3 {
				case 0:
					c.Put(k, bytes.Repeat([]byte{byte(g)}, i%64+1))
				case 1:
					c.Get(k)
				default:
					c.Range(func(Key, []byte) bool { return false })
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 1<<12 {
		t.Fatalf("budget exceeded: %d", c.Bytes())
	}
}
