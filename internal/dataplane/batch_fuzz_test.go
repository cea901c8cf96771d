package dataplane

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// fuzzCounts is one side's observable counter totals, collected through
// the pipeline hooks: the batch side via the N-variant hooks flushed
// once per batch, the scalar side via the per-frame hooks.
type fuzzCounts struct {
	drops [stats.NumDropReasons]uint64
	local uint64
	auth  uint64
}

func countingPipeline(c *fuzzCounts, batched bool) Pipeline {
	p := Pipeline{Node: "fuzz", Clock: fixedClock(1)}
	if batched {
		p.Hooks = Hooks{
			CountDropN:            func(r stats.DropReason, n uint64) { c.drops[r] += n },
			CountLocalN:           func(n uint64) { c.local += n },
			CountTokenAuthorizedN: func(n uint64) { c.auth += n },
		}
	} else {
		p.Hooks = Hooks{
			CountDrop:            func(r stats.DropReason) { c.drops[r]++ },
			CountLocal:           func() { c.local++ },
			CountTokenAuthorized: func() { c.auth++ },
		}
	}
	return p
}

// resolveScalar runs one frame through the scalar kernel exactly as a
// substrate would — Decide, the Block-mode Await resolution, then the
// Drop/Local accounting for terminal verdicts — and returns the settled
// verdict.
func resolveScalar(p *Pipeline, ts *TokenState, data []byte) Verdict {
	seg, _, err := DecodeHop(data)
	if err != nil {
		v := Verdict{Action: ActionDrop, Reason: stats.DropNotSirpent}
		p.Drop(v.Reason, 1, v.Account, nil, 0)
		return v
	}
	in := HopInput{InPort: 1, Seg: &seg, ChargeBytes: uint64(len(data))}
	v := p.Decide(ts, &in)
	if v.Action == ActionAwaitToken {
		v = p.InstallToken(ts, &in)
	}
	switch v.Action {
	case ActionDrop:
		p.Drop(v.Reason, 1, v.Account, nil, 0)
	case ActionLocal:
		p.Local(1, nil, 0)
	}
	return v
}

// FuzzDecideBatch is the batch-kernel equivalence fuzz: the input's
// first byte picks a batch size (1..8) and the rest splits into that
// many frame payloads, so batch boundaries, mixed drop/local/forward
// verdicts within one batch, and token-await deferrals splitting a batch
// all come from the fuzzer. The batch runs through DecideBatch +
// InstallTokenBatched + the batched accounting against one token state;
// the same frames run through N scalar Decide calls against an
// identically-configured independent token state. Everything observable
// must match frame for frame: the settled verdict (action, out port,
// drop reason, charged account), the decoded segment and remainder the
// surgery would consume, the counter totals, the token cache's
// verification and hit counts, and its per-account usage (charge ordering included — a swapped charge order
// shows up as diverging totals once a budget edge is crossed).
func FuzzDecideBatch(f *testing.F) {
	seedAuth := token.NewAuthority([]byte("fuzz-key"))
	tok := seedAuth.Issue(token.Spec{Account: 7, Port: 5, ReverseOK: true})
	limited := seedAuth.Issue(token.Spec{Account: 9, Port: 5, Limit: 64, Nonce: 1})
	var seeds [][]byte
	for _, route := range [][]viper.Segment{
		{{Port: 2, Flags: viper.FlagVNT}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: tok}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: limited}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: []byte{1, 2, 3, 4}}, {Port: viper.PortLocal}},
		{{Port: viper.PortLocal}},
		{{Port: 3, Flags: viper.FlagTRE | viper.FlagVNT, PortInfo: []byte{0, 1}}, {Port: viper.PortLocal}},
	} {
		pkt := viper.NewPacket(route, []byte("fuzz-batch-payload"))
		pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
		if b, err := pkt.Encode(); err == nil {
			seeds = append(seeds, b)
		}
	}
	// Single-frame batches of each shape, then a mixed batch of all of
	// them (first byte = batch size).
	for _, s := range seeds {
		f.Add(append([]byte{1}, s...))
	}
	var mixed []byte
	mixed = append(mixed, byte(len(seeds)))
	for _, s := range seeds {
		mixed = append(mixed, s...)
	}
	f.Add(mixed)

	auth := token.NewAuthority([]byte("fuzz-key"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		body := data[1:]
		frames := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			lo, hi := i*len(body)/n, (i+1)*len(body)/n
			frames = append(frames, body[lo:hi])
		}

		// Two independent, identically-configured token states: charges
		// on one side must not leak into the other.
		tsB := (*TokenState)(nil).WithAuthority(auth).WithRequired(5)
		tsS := (*TokenState)(nil).WithAuthority(auth).WithRequired(5)
		var cb, cs fuzzCounts
		pb := countingPipeline(&cb, true)
		ps := countingPipeline(&cs, false)

		// Batch side: decide a prefix, settle it in batch order —
		// deferral resolution, drop/local accounting — and decide the rest
		// after each deferral, then flush once.
		batch := make([]BatchFrame, n)
		for i, fr := range frames {
			batch[i] = BatchFrame{InPort: 1, ChargeBytes: uint64(len(fr)), Pkt: fr}
		}
		var bs BatchStats
		settled := make([]Verdict, n)
		for i := 0; i < n; {
			for end := i + pb.DecideBatch(tsB, batch[i:], &bs); i < end; i++ {
				v := batch[i].Verdict
				if v.Action == ActionAwaitToken {
					if i != end-1 {
						t.Fatalf("frame %d/%d: decided past a token deferral", i, n)
					}
					in := HopInput{InPort: 1, Seg: &batch[i].Seg, ChargeBytes: batch[i].ChargeBytes}
					v = pb.InstallTokenBatched(tsB, &in, &bs)
				}
				switch v.Action {
				case ActionDrop:
					pb.DropBatched(&bs, v.Reason, 1, v.Account, nil, 0)
				case ActionLocal:
					pb.LocalBatched(&bs, 1, nil, 0)
				}
				settled[i] = v
			}
		}
		pb.FlushBatch(&bs)

		// Scalar side: the same frames, one at a time, in the same order.
		for i, fr := range frames {
			want := resolveScalar(&ps, tsS, fr)
			if !settled[i].Equal(want) {
				t.Fatalf("frame %d/%d: batch verdict %+v, scalar verdict %+v", i, n, settled[i], want)
			}
			seg, rest, err := DecodeHop(fr)
			if err != nil {
				continue
			}
			if !batch[i].Seg.Equal(&seg) {
				t.Fatalf("frame %d/%d: batch decoded segment %v, scalar %v", i, n, &batch[i].Seg, &seg)
			}
			if !bytes.Equal(batch[i].Rest, rest) {
				t.Fatalf("frame %d/%d: batch rest diverges from scalar", i, n)
			}
		}

		if cb != cs {
			t.Fatalf("counter totals diverge: batch %+v, scalar %+v", cb, cs)
		}
		if bt, st := tsB.Cache().AccountTotals(), tsS.Cache().AccountTotals(); !reflect.DeepEqual(bt, st) {
			t.Fatalf("token account totals diverge: batch %v, scalar %v", bt, st)
		}
		bv, bh := tsB.Cache().Metrics()
		sv, sh := tsS.Cache().Metrics()
		if bv != sv || bh != sh {
			t.Fatalf("token cache work diverges: batch %d verifies + %d hits, scalar %d + %d", bv, bh, sv, sh)
		}
	})
}
