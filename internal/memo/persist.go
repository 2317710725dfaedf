// Journal-backed persistence: a cache file is an ordinary internal/journal
// log — checksummed records, torn-tail salvage on open — whose first record
// fingerprints the codec that wrote it, exactly like the sweep journals
// fingerprint their grid and the job manifest its params. A cache file
// written by a different codec (format evolution, a different value type) is
// rejected as invalid input rather than half-decoded.
package memo

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/obs"
)

// Codec serializes cached values for the persistence layer. Encode must
// round-trip bit-exactly through Decode — callers cache float-bearing
// analysis results, and a warmed cache must answer with the same bits the
// original run computed (the property the warm-start tests assert).
type Codec struct {
	// Name identifies the value encoding; it is stored in the cache file's
	// meta record and checked on Warm.
	Name string
	// Encode renders a cached value to its journal form.
	Encode func(v any) (json.RawMessage, error)
	// Decode parses a journal form back to the value and its size estimate.
	Decode func(data json.RawMessage) (any, int64, error)
}

// metaKey fingerprints a cache file; entryKeyPrefix prefixes one entry
// record per cached value.
const (
	metaKey        = "memo:meta"
	entryKeyPrefix = "memo:entry:"
)

// persistMeta is the cache file's identity record.
type persistMeta struct {
	Format string `json:"format"`
	Codec  string `json:"codec"`
}

// persistFormat names the file layout; bump on incompatible changes.
const persistFormat = "fnpr-memo/1"

// persistEntry is one journaled cache entry.
type persistEntry struct {
	Verify string          `json:"verify"`
	Size   int64           `json:"size"`
	Value  json.RawMessage `json:"value"`
}

// Persist writes the cache's current contents to path as a fresh journal
// (an existing file is replaced, not appended to — the cache is the source
// of truth, the file a snapshot). SyncEvery follows journal.Options.
func (c *Cache) Persist(path string, opts journal.Options) error {
	if c == nil {
		return nil
	}
	if c.codec == nil || c.codec.Encode == nil {
		return guard.Invalidf("memo: cache has no codec; cannot persist")
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return guard.Storagef(err, "memo: replacing cache file %s", path)
	}
	j, _, err := journal.OpenWith(path, opts)
	if err != nil {
		return err
	}
	saved := int64(0)
	err = func() error {
		if err := j.Append(metaKey, persistMeta{Format: persistFormat, Codec: c.codec.Name}); err != nil {
			return err
		}
		for i, en := range c.snapshot() {
			data, err := c.codec.Encode(en.value)
			if err != nil {
				return fmt.Errorf("memo: encoding entry %016x: %w", en.key, err)
			}
			rec := persistEntry{Verify: en.verify, Size: en.size, Value: data}
			if err := j.Append(entryKeyPrefix+strconv.FormatUint(en.key, 16), rec); err != nil {
				return err
			}
			saved = int64(i + 1)
		}
		return nil
	}()
	if cerr := j.Close(); cerr != nil && err == nil {
		err = cerr
	}
	mSaved.In(obs.Default()).Add(saved)
	return err
}

// Warm loads a previously persisted cache file into c: the meta record is
// verified against the cache's codec, every entry record is decoded and
// Put. Undecodable individual entries are skipped (counted in
// memo.persist.rejected) — a stale or partially foreign file warms what it
// can; a file with a wrong or missing meta record is refused entirely. The
// journal layer has already salvaged any torn tail by the time records
// arrive here. Returns the number of entries loaded; a missing file is a
// clean zero (cold start).
func (c *Cache) Warm(path string, opts journal.Options) (int, error) {
	if c == nil {
		return 0, nil
	}
	if c.codec == nil || c.codec.Decode == nil {
		return 0, guard.Invalidf("memo: cache has no codec; cannot warm")
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return 0, nil
	}
	j, recs, err := journal.OpenWith(path, opts)
	if err != nil {
		return 0, err
	}
	j.Close() // read-only use: the open positioned us for appends we won't make
	latest := journal.Latest(recs)
	var meta persistMeta
	ok, err := journal.Get(latest, metaKey, &meta)
	if err != nil || !ok {
		return 0, guard.Invalidf("memo: %s is not a cache file (missing meta record)", path)
	}
	if meta.Format != persistFormat || meta.Codec != c.codec.Name {
		return 0, guard.Invalidf("memo: %s was written by codec %s/%s, this cache reads %s/%s",
			path, meta.Format, meta.Codec, persistFormat, c.codec.Name)
	}
	loaded, rejected := 0, int64(0)
	for key, data := range latest {
		hexKey, found := strings.CutPrefix(key, entryKeyPrefix)
		if !found {
			continue
		}
		pk, err := strconv.ParseUint(hexKey, 16, 64)
		if err != nil {
			rejected++
			continue
		}
		var rec persistEntry
		if err := json.Unmarshal(data, &rec); err != nil {
			rejected++
			continue
		}
		v, size, err := c.codec.Decode(rec.Value)
		if err != nil {
			rejected++
			continue
		}
		if size <= 0 {
			size = rec.Size
		}
		c.Put(pk, rec.Verify, v, size)
		loaded++
	}
	mLoaded.In(obs.Default()).Add(int64(loaded))
	mRejected.In(obs.Default()).Add(rejected)
	return loaded, nil
}
