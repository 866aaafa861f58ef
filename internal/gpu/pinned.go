package gpu

import (
	"fmt"

	"tianhe/internal/perfmodel"
)

// PinnedPool models the page-locked staging memory of Section V.A: CAL only
// lets 4 MB be allocated at one time, and pinning too much degrades the
// whole host, so the runtime keeps a small fixed pool of chunks and streams
// transfers through them ping-pong style. A transfer that cannot get two
// chunks (one per direction of the two-hop path) falls back to the pageable
// copy rate. A PinnedPool is not safe for concurrent use: it is owned by one
// element's Device and acquired and released from that element's goroutine.
type PinnedPool struct {
	chunkBytes int64
	total      int
	inUse      int
}

// NewPinnedPool builds a pool of totalBytes of pinned memory divided into
// the CAL-sized 4 MB chunks. totalBytes <= 0 selects the default of 8
// chunks (32 MB) — enough for double buffering without "decreasing the
// performance of the entire host system".
func NewPinnedPool(totalBytes int64) *PinnedPool {
	if totalBytes <= 0 {
		totalBytes = 8 * perfmodel.PinnedPoolBytes
	}
	n := int(totalBytes / perfmodel.PinnedPoolBytes)
	if n < 1 {
		n = 1
	}
	return &PinnedPool{chunkBytes: perfmodel.PinnedPoolBytes, total: n}
}

// ChunkBytes returns the size of one pinned chunk (4 MB under CAL).
func (p *PinnedPool) ChunkBytes() int64 { return p.chunkBytes }

// Total returns the pool's chunk count.
func (p *PinnedPool) Total() int { return p.total }

// InUse returns the number of chunks currently acquired.
func (p *PinnedPool) InUse() int { return p.inUse }

// ErrPinnedExhausted reports an Acquire on an empty pool.
type ErrPinnedExhausted struct{ Total int }

func (e ErrPinnedExhausted) Error() string {
	return fmt.Sprintf("gpu: pinned pool exhausted (%d chunks all in use)", e.Total)
}

// Acquire takes n chunks from the pool.
func (p *PinnedPool) Acquire(n int) error {
	if p.inUse+n > p.total {
		return ErrPinnedExhausted{Total: p.total}
	}
	p.inUse += n
	return nil
}

// Release returns n chunks to the pool. Releasing more than acquired
// panics: it means the accounting is corrupt.
func (p *PinnedPool) Release(n int) {
	if n > p.inUse {
		panic("gpu: pinned pool release underflow")
	}
	p.inUse -= n
}

// stagingChunks is how many pool chunks one in-flight transfer needs: the
// ping-pong pair that overlaps the two hops.
const stagingChunks = 2

// transferModel picks the path for one transfer: the configured (pinned)
// model when the pool can stage it, the pageable fallback otherwise. acquired
// reports that the transfer took its staging chunks from the pool; the caller
// releases them once the transfer is booked.
func (d *Device) transferModel() (tr perfmodel.Transfer, acquired bool) {
	if !d.cfg.Transfer.Chunked || d.pool == nil {
		return d.cfg.Transfer, false
	}
	if err := d.pool.Acquire(stagingChunks); err != nil {
		return perfmodel.PageableTransfer(), false
	}
	return d.cfg.Transfer, true
}
