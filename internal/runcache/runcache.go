// Package runcache is a concurrency-safe, content-addressed memoization
// layer for deterministic computations. The experiment harness keys every
// timing run and profiling run by (program fingerprint, canonicalized
// configuration); because the simulator is bit-deterministic, two runs
// with the same key produce identical results, so the second one is pure
// waste. A shared Cache makes `-exp all` compute each unique run exactly
// once: the figure sweeps re-request the same baselines and profiles, and
// every repeat is served from the cache or by waiting on the in-flight
// first computation (single-flight).
//
// The cache stores values as `any` and never copies them, so cached
// values are shared across callers and must be treated as immutable.
// Errors are never cached: a failed computation (including one cancelled
// by its context) is forgotten, and any waiters retry — one of them
// becoming the new leader — so a transient failure in one sweep cannot
// poison later ones.
//
// # Eviction
//
// A cache built with New is unbounded: every completed entry lives until
// the cache is dropped, which is exactly right for a one-shot CLI sweep
// (and what keeps the exactly-once accounting byte-identical: Computes
// equals unique runs because nothing is ever recomputed). Long-lived
// processes — the dpbpd sweep server — build the cache with NewBounded
// instead, which bounds the in-memory tier by entry count and/or
// estimated bytes and evicts in LRU order (Stats.Evictions counts the
// drops). Only completed entries are evictable: an in-flight computation
// or a completed entry that still has blocked waiters is never evicted,
// so single-flight and the "read val after done" contract survive any
// bound, including one smaller than the working set. Eviction only
// forgets the entry: callers already holding the value keep it, and the
// next Do for the key recomputes (or re-reads the backing tier).
//
// # Two tiers
//
// SetTier attaches an optional backing store (see DiskStore) consulted
// when the in-memory tier misses and written through when a computation
// completes. The tier sees only the single-flight leader, so a stampede
// of requests for one key costs at most one tier read. A tier stores
// whatever subset of value types it knows how to serialize and reports
// the rest unstorable; the memory tier works the same either way.
package runcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Key is a content-addressed cache key: a sha256 over a domain tag and
// the canonical encoding of the inputs (see KeyOf).
type Key [sha256.Size]byte

// String renders an abbreviated hex form for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Stats counts cache traffic. Computes equals the number of distinct keys
// whose computation was started; with a deterministic workload and no
// errors it equals the number of unique runs, which is what the
// exactly-once tests assert.
type Stats struct {
	// Lookups counts Do calls.
	Lookups uint64
	// Computes counts computations started (successful or not).
	Computes uint64
	// Hits counts Do calls served by an already-completed entry.
	Hits uint64
	// Waits counts Do calls that blocked on another caller's in-flight
	// computation.
	Waits uint64
	// Errors counts computations that returned an error (never cached).
	Errors uint64
	// Evictions counts completed entries dropped by the in-memory bound
	// (always 0 for an unbounded cache).
	Evictions uint64
	// TierHits counts computations served by the backing tier instead of
	// running (always 0 without SetTier).
	TierHits uint64
	// TierPuts counts completed computations the backing tier accepted
	// for write-through.
	TierPuts uint64
}

// entry is one cache slot. done is closed when the computation finishes;
// val/err must only be read after done is closed. key, elem, size, and
// waiters are guarded by the cache mutex.
type entry struct {
	done chan struct{}
	val  any
	err  error

	key     Key
	elem    *list.Element // LRU position once completed; nil while in flight
	size    int64
	waiters int // Do calls currently blocked on done
}

// Limits bounds a cache's in-memory tier; see NewBounded. A zero field
// means "no bound of that kind".
type Limits struct {
	// MaxEntries bounds the number of completed entries held in memory.
	MaxEntries int
	// MaxBytes bounds the sum of SizeOf over completed entries.
	MaxBytes int64
	// SizeOf estimates one cached value's resident bytes for the
	// MaxBytes bound. Nil means every entry weighs zero bytes, making
	// MaxBytes inert; set it when bounding by bytes.
	SizeOf func(v any) int64
}

// Tier is an optional backing store behind the in-memory tier: Get is
// consulted when a key misses in memory (before computing), and Put is
// offered every freshly computed value. Put reports whether the tier
// stored the value — a tier only persists the types it can serialize,
// and refusing is not an error. Implementations must be safe for
// concurrent use; the cache calls them without holding its lock, though
// never concurrently for the same key (single-flight).
type Tier interface {
	Get(k Key) (v any, ok bool)
	Put(k Key, v any) bool
}

// Cache is a single-flight memoization table. The zero value is not
// usable; call New or NewBounded.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // completed entries, most recent at front
	lim     Limits
	bytes   int64 // sum of entry sizes on the LRU list
	tier    Tier
	stats   Stats
}

// New returns an empty, unbounded cache (the CLI default: nothing is
// ever evicted or recomputed).
func New() *Cache { return NewBounded(Limits{}) }

// NewBounded returns an empty cache whose in-memory tier is bounded by
// lim, evicting completed entries in least-recently-used order once a
// bound is exceeded. Entries with in-flight computations or blocked
// waiters are never evicted.
func NewBounded(lim Limits) *Cache {
	return &Cache{entries: make(map[Key]*entry), lru: list.New(), lim: lim}
}

// SetTier attaches a backing store consulted on in-memory misses and
// written through on computes. Call it during setup, before the cache is
// shared across goroutines; a nil tier detaches.
func (c *Cache) SetTier(t Tier) { c.tier = t }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached (or in-flight) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the cached value for k, computing it with compute if absent.
// Exactly one caller computes a given key at a time; concurrent callers
// with the same key block until the leader finishes (or until their own
// ctx is cancelled — the computation itself keeps running). If the leader
// returns an error the entry is forgotten and one of the waiters retries,
// so errors are returned to everyone waiting but never cached.
//
// A compute that panics is also forgotten before the panic propagates, so
// the caller's panic isolation (e.g. internal/sched) sees the original
// panic and waiters simply retry.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (any, error)) (any, error) {
	counted := false
	for {
		c.mu.Lock()
		if !counted {
			c.stats.Lookups++
			counted = true
		}
		e, ok := c.entries[k]
		if !ok {
			e = &entry{done: make(chan struct{}), key: k}
			c.entries[k] = e
			c.stats.Computes++
			c.mu.Unlock()
			return c.lead(k, e, compute)
		}
		select {
		case <-e.done:
			c.stats.Hits++
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.mu.Unlock()
		default:
			// Count ourselves as a waiter so the eviction scan leaves
			// the entry alone until we have read its value.
			c.stats.Waits++
			e.waiters++
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				c.mu.Lock()
				e.waiters--
				c.mu.Unlock()
				return nil, ctx.Err()
			}
			c.mu.Lock()
			e.waiters--
			c.mu.Unlock()
		}
		if e.err != nil {
			// The leader failed; its entry is already deleted.
			// Loop: we may become the new leader.
			continue
		}
		return e.val, nil
	}
}

// lead runs the computation for the entry this caller just installed,
// consulting the backing tier first and writing fresh values through.
func (c *Cache) lead(k Key, e *entry, compute func() (any, error)) (any, error) {
	completed := false
	defer func() {
		// On panic: forget the entry and release waiters before the
		// panic propagates, so they retry instead of hanging.
		if !completed {
			e.err = fmt.Errorf("runcache: computation for %v panicked", k)
		}
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, k)
			c.stats.Errors++
		} else {
			c.completed(e)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	if t := c.tier; t != nil {
		if v, ok := t.Get(k); ok {
			e.val = v
			completed = true
			c.mu.Lock()
			c.stats.TierHits++
			c.mu.Unlock()
			return e.val, nil
		}
	}
	e.val, e.err = compute()
	completed = true
	if e.err == nil && c.tier != nil && c.tier.Put(k, e.val) {
		c.mu.Lock()
		c.stats.TierPuts++
		c.mu.Unlock()
	}
	return e.val, e.err
}

// completed moves a successfully computed entry onto the LRU list and
// enforces the bounds. Called with c.mu held.
func (c *Cache) completed(e *entry) {
	e.size = 0
	if c.lim.SizeOf != nil {
		e.size = c.lim.SizeOf(e.val)
	}
	e.elem = c.lru.PushFront(e)
	c.bytes += e.size
	c.evictLocked()
}

// overLimit reports whether the completed tier currently exceeds a
// configured bound. Called with c.mu held.
func (c *Cache) overLimit() bool {
	return (c.lim.MaxEntries > 0 && c.lru.Len() > c.lim.MaxEntries) ||
		(c.lim.MaxBytes > 0 && c.bytes > c.lim.MaxBytes)
}

// evictLocked drops least-recently-used completed entries until the
// bounds hold, skipping entries that still have blocked waiters (they
// are promoted to the front instead — they are demonstrably in use).
// Called with c.mu held.
func (c *Cache) evictLocked() {
	// At most one pass over the list: every iteration either removes an
	// element or moves a waited-on one to the front, so scan is bounded.
	for scan := c.lru.Len(); scan > 0 && c.overLimit(); scan-- {
		back := c.lru.Back()
		e := back.Value.(*entry)
		if e.waiters > 0 {
			c.lru.MoveToFront(back)
			continue
		}
		c.lru.Remove(back)
		e.elem = nil
		c.bytes -= e.size
		delete(c.entries, e.key)
		c.stats.Evictions++
	}
}

// KeyOf builds a content-addressed key from a domain tag and a sequence
// of canonical parts. Parts are hashed structurally via reflection: two
// parts hash identically iff they have the same shape and scalar
// contents, regardless of how they were built (a nil slice equals an
// empty one). Callers canonicalize configuration values first (e.g.
// cpu.Config.Canonical) so that configs meaning the same run collide.
//
// The encoding is appended into one pooled buffer and hashed once; its
// bytes are pinned by golden keys, because the disk tier names stored
// results by them.
//
// Maps, channels, and non-nil funcs have no canonical encoding and panic:
// a config carrying one (such as a cpu.Config with an OnBuild hook) is
// not cacheable, and callers must bypass the cache for it.
func KeyOf(domain string, parts ...any) Key {
	bp := keyBufs.Get().(*[]byte)
	b := appendString((*bp)[:0], domain)
	for _, p := range parts {
		b = append(b, 0x1f) // part separator
		b = appendValue(b, reflect.ValueOf(p))
	}
	k := Key(sha256.Sum256(b))
	*bp = b
	keyBufs.Put(bp)
	return k
}

// keyBufs recycles KeyOf's encoding buffers.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendString(b []byte, s string) []byte {
	return append(appendUint64(b, uint64(len(s))), s...)
}

// Kind tags keep composite encodings prefix-free: every node contributes
// its kind and (for variable-size nodes) its length before its contents.
const (
	tagBool = iota + 1
	tagInt
	tagUint
	tagFloat
	tagString
	tagSeq // slices and arrays
	tagStruct
	tagNil // nil pointer, func, or interface
	tagPtr
	tagIface
)

func appendValue(b []byte, v reflect.Value) []byte {
	if !v.IsValid() {
		return append(b, tagNil)
	}
	switch v.Kind() {
	case reflect.Bool:
		b = append(b, tagBool, 0)
		if v.Bool() {
			b[len(b)-1] = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = append(b, tagInt)
		b = appendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b = append(b, tagUint)
		b = appendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		b = append(b, tagFloat)
		b = appendUint64(b, math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		b = append(b, tagFloat)
		b = appendUint64(b, math.Float64bits(real(v.Complex())))
		b = appendUint64(b, math.Float64bits(imag(v.Complex())))
	case reflect.String:
		b = append(b, tagString)
		b = appendString(b, v.String())
	case reflect.Slice, reflect.Array:
		// A nil slice and an empty one encode identically on purpose.
		b = append(b, tagSeq)
		n := v.Len()
		b = appendUint64(b, uint64(n))
		for i := 0; i < n; i++ {
			b = appendValue(b, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		b = append(b, tagStruct)
		b = appendString(b, t.String())
		b = appendUint64(b, uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
	case reflect.Ptr:
		if v.IsNil() {
			return append(b, tagNil)
		}
		b = append(b, tagPtr)
		b = appendValue(b, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(b, tagNil)
		}
		b = append(b, tagIface)
		b = appendString(b, v.Elem().Type().String())
		b = appendValue(b, v.Elem())
	case reflect.Func, reflect.Chan, reflect.Map:
		if v.IsNil() {
			return append(b, tagNil)
		}
		panic(fmt.Sprintf("runcache: cannot canonicalize non-nil %s (%s)", v.Kind(), v.Type()))
	default:
		panic(fmt.Sprintf("runcache: cannot canonicalize %s (%s)", v.Kind(), v.Type()))
	}
	return b
}
