package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCacheEviction: the LRU evicts the least recently *used* entry, with
// Get counting as a use and Peek not.
func TestCacheEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	put := func(k string) { t.Helper(); c.Put(k, []byte(k)) }
	has := func(k string) bool { _, ok := c.Peek(k); return ok }

	put("a")
	put("b")
	put("c") // evicts a
	if has("a") || !has("b") || !has("c") {
		t.Fatalf("after a,b,c: a=%v b=%v c=%v", has("a"), has("b"), has("c"))
	}
	if _, ok := c.Get("b"); !ok { // promote b
		t.Fatal("b missing")
	}
	put("d") // evicts c, not the freshly used b
	if has("c") || !has("b") || !has("d") {
		t.Fatalf("after promote+d: b=%v c=%v d=%v", has("b"), has("c"), has("d"))
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// Peek must not promote: peek b's sibling then evict.
	c.Peek("b")
	put("e") // evicts b (d was used more recently than... b was promoted by Get earlier)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestCacheDisk: the directory layer survives both eviction and "restart"
// (a fresh Cache over the same directory).
func TestCacheDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", []byte(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k2", []byte(`{"r":2}`)); err != nil { // evicts k1 from memory
		t.Fatal(err)
	}
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("k1 still memory-resident at capacity 1")
	}
	// Get falls back to disk and re-promotes.
	data, ok := c.Get("k1")
	if !ok || !bytes.Equal(data, []byte(`{"r":1}`)) {
		t.Fatalf("disk fallback: %q ok=%v", data, ok)
	}
	// A fresh cache over the same directory serves persisted results.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, ok = c2.Get("k2")
	if !ok || !bytes.Equal(data, []byte(`{"r":2}`)) {
		t.Fatalf("restart fallback: %q ok=%v", data, ok)
	}
	// No stray temp files left behind.
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Fatalf("temp files left: %v", tmp)
	}
	// Files are the raw result bytes.
	raw, err := os.ReadFile(filepath.Join(dir, "k1.json"))
	if err != nil || !bytes.Equal(raw, []byte(`{"r":1}`)) {
		t.Fatalf("disk file: %q err=%v", raw, err)
	}
}

// TestCacheTruncatedEntryIsMiss: a persisted entry that is no longer valid
// JSON — a torn or truncated write — is a miss, and is not promoted into
// memory, so the job is simulated again instead of serving corrupt bytes.
func TestCacheTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", []byte(`{"points":[1,2,3]}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k2", []byte(`{"points":[4]}`)); err != nil { // evicts k1 from memory
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "k1.json"), 9); err != nil {
		t.Fatal(err)
	}
	if data, ok := c.Get("k1"); ok {
		t.Fatalf("truncated entry served as a hit: %q", data)
	}
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("truncated entry promoted into memory")
	}
	if _, ok := c.Peek("k2"); !ok {
		t.Fatal("a miss evicted the resident entry")
	}
}

// TestCacheCorruptEntryIsMiss: a persisted entry corrupted into different
// but still valid JSON — one flipped digit — fails its checksum, so it is a
// miss and is not promoted instead of being served as a cached result.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", []byte(`{"points":[1,2,3]}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k2", []byte(`{"points":[4]}`)); err != nil { // evicts k1 from memory
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k1.json"), []byte(`{"points":[1,7,3]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, ok := c.Get("k1"); ok {
		t.Fatalf("corrupt entry served as a hit: %q", data)
	}
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("corrupt entry promoted into memory")
	}
}
