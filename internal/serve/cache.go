package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is the content-addressed result store: an in-memory LRU over the
// serialized result documents, optionally backed by a directory so results
// survive both eviction and daemon restarts. Keys are Hash digests; values
// are MarshalResult documents and must be treated as immutable by callers.
//
// The disk layer is write-through: Put persists before inserting in memory,
// each entry followed by a sidecar holding the payload's sha256, and a
// memory miss falls back to the directory, promoting what it finds only if
// the payload matches its checksum. Because results are deterministic, a stale
// or concurrently rewritten file can only ever contain the same bytes, so
// there is no invalidation protocol — the one luxury of caching a pure
// function.
type Cache struct {
	mu      sync.Mutex
	cap     int
	dir     string
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache creates a cache holding at most capEntries results in memory
// (minimum 1). dir, when non-empty, enables the disk layer; it is created
// if missing.
func NewCache(capEntries int, dir string) (*Cache, error) {
	if capEntries < 1 {
		capEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return &Cache{
		cap:     capEntries,
		dir:     dir,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}, nil
}

// Get returns the result for key, consulting memory then disk, and promotes
// the entry to most-recently-used. The disk read runs outside c.mu, so a
// slow disk never stalls memory hits. An entry whose checksum is missing or
// does not match — a truncated, torn or bit-flipped file — is a miss and is
// not promoted; results are deterministic, so a miss costs only a
// re-simulation.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	if sum, err := os.ReadFile(c.sumPath(key)); err != nil || string(sum) != checksum(data) {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, data)
	return data, true
}

// Peek is Get without recency promotion or disk fallback — for read-only
// endpoints that should not disturb the eviction order.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

// Put stores a result, evicting the least-recently-used entries beyond
// capacity. With a disk layer the write happens first, so an entry is never
// memory-resident but unpersisted; the checksum is written after the entry,
// so a write cut short between the two leaves a miss, not a bad hit.
func (c *Cache) Put(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir != "" {
		if err := writeFile(c.path(key), data); err != nil {
			return err
		}
		if err := writeFile(c.sumPath(key), []byte(checksum(data))); err != nil {
			return err
		}
	}
	c.insert(key, data)
	return nil
}

// writeFile replaces path with data through a temporary file and a rename,
// so readers see the old file or the new one, never a partial write.
func writeFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	return nil
}

// checksum is the hex sha256 a disk entry's sidecar holds.
func checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// insert adds or refreshes a memory entry and trims to capacity.
// Caller holds c.mu.
func (c *Cache) insert(key string, data []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).data = data
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the number of memory-resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// path maps a key to its disk file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// sumPath maps a key to its checksum sidecar.
func (c *Cache) sumPath(key string) string {
	return filepath.Join(c.dir, key+".sha256")
}
