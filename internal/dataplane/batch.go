package dataplane

import (
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// This file is the batched entry point of the hop kernel. The scalar
// Decide costs one hook dispatch per observable event per frame; at
// livenet's packet rates those dispatches — and the channel handoffs
// around them — dominate the hop (ROADMAP item 1). DecideBatch runs the
// identical decision stage over N frames per call and accumulates the
// counter deltas in a BatchStats, flushed once per batch, so the hot
// path touches the substrate's atomic counter plane O(1) times per
// batch instead of O(N).
//
// Equivalence contract (enforced by FuzzDecideBatch and the
// netsim-vs-livenet shape-parity suite in internal/check, not by
// inspection): for every frame, the verdict, the token charge, and the
// resulting trailer surgery are byte-identical to what N scalar Decide
// calls in the same order would produce. Anomaly sinks — flight-recorder
// events and trace hops — stay per-frame in the pinned order (counter
// stage, flight event, trace hop); only the counter stage is deferred,
// which is unobservable at quiesce because counters are monotonic
// totals. See DESIGN.md §11 for the full batch contract.

// BatchFrame is one frame's slot in a DecideBatch call. The caller
// fills InPort, ChargeBytes, and Pkt; the kernel fills Seg, Rest, and
// Verdict. Seg's variable fields alias Pkt exactly as DecodeHop's do —
// the slot is only valid while the caller owns the frame's buffer.
type BatchFrame struct {
	InPort      uint8
	ChargeBytes uint64
	Pkt         []byte

	// Seg is the decoded leading segment and Rest the packet starting
	// at the next segment; both are undefined when Verdict is a
	// DropNotSirpent (the frame failed to decode).
	Seg  viper.Segment
	Rest []byte

	Verdict Verdict
}

// BatchStats accumulates the counter deltas of one batch. The substrate
// keeps one per worker, passes it through the batched kernel calls, and
// flushes it with FlushBatch after disposing of every frame — partial
// batches included, so counters never lag further than the batch in
// flight.
type BatchStats struct {
	TokenAuthorized uint64
	Local           uint64
	Drops           [stats.NumDropReasons]uint64
}

// DecideBatch runs the decision stage — decode, token authorization and
// charging, three-way classification — over a prefix of a batch,
// writing each frame's verdict in place, and returns the prefix length.
// Frames that fail to decode get an ActionDrop verdict with
// DropNotSirpent. Deciding stops after the first ActionAwaitToken
// verdict: the caller resolves it (InstallTokenBatched) and calls again
// on the rest, so a deferral splits the batch exactly where the scalar
// path would have blocked — later frames carrying the same token then
// hit the cache instead of each paying a full verification. Token
// charges land in the same order as N scalar Decide calls;
// authorization counts accumulate into bs.
func (p *Pipeline) DecideBatch(ts *TokenState, batch []BatchFrame, bs *BatchStats) int {
	for i := range batch {
		b := &batch[i]
		var err error
		b.Seg, b.Rest, err = DecodeHop(b.Pkt)
		if err != nil {
			b.Verdict = Verdict{Action: ActionDrop, Reason: stats.DropNotSirpent}
			continue
		}
		in := HopInput{InPort: b.InPort, Seg: &b.Seg, ChargeBytes: b.ChargeBytes}
		b.Verdict = p.decide(ts, &in, bs)
		if b.Verdict.Action == ActionAwaitToken {
			return i + 1
		}
	}
	return len(batch)
}

// InstallTokenBatched is InstallToken with the authorization count
// accumulated into bs instead of dispatched through the scalar hook.
// The substrate calls it, in batch order, for each frame whose batch
// verdict was ActionAwaitToken.
func (p *Pipeline) InstallTokenBatched(ts *TokenState, in *HopInput, bs *BatchStats) Verdict {
	return p.installToken(ts, in, bs)
}

// DropBatched accounts one discarded frame of a batch: the drop count
// accumulates into bs (flushed at batch end), while the flight-recorder
// event and trace terminal hop fire immediately, per frame, in the same
// pinned order as the scalar Drop.
func (p *Pipeline) DropBatched(bs *BatchStats, reason stats.DropReason, inPort uint8, account uint32, pt *trace.PacketTrace, arrived int64) {
	bs.Drops[reason]++
	p.dropSinks(reason, inPort, account, pt, arrived)
}

// LocalBatched accounts one frame of a batch delivered to the node's
// own stack: count into bs, trace terminal hop immediately.
func (p *Pipeline) LocalBatched(bs *BatchStats, inPort uint8, pt *trace.PacketTrace, arrived int64) {
	bs.Local++
	p.localSinks(inPort, pt, arrived)
}

// FlushBatch publishes a batch's accumulated counts through the batched
// hooks — one call per touched counter — and zeroes bs for reuse.
func (p *Pipeline) FlushBatch(bs *BatchStats) {
	if bs.TokenAuthorized > 0 && p.Hooks.CountTokenAuthorizedN != nil {
		p.Hooks.CountTokenAuthorizedN(bs.TokenAuthorized)
	}
	if bs.Local > 0 && p.Hooks.CountLocalN != nil {
		p.Hooks.CountLocalN(bs.Local)
	}
	if p.Hooks.CountDropN != nil {
		for reason, n := range bs.Drops {
			if n > 0 {
				p.Hooks.CountDropN(stats.DropReason(reason), n)
			}
		}
	}
	*bs = BatchStats{}
}
