package check

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// replyTraceBit distinguishes a flow's reply trace from its request
// trace: both carry the flow ID in the payload, so TraceID sets the top
// bit on replies to keep the two records separately addressable.
const replyTraceBit = uint64(1) << 63

// TraceID derives a trace record's ID from the harness payload encoding
// (flow ID at [0:8], kind at [8]). Install it as a Recorder's idFn so
// hop-level traces can be joined against flows when the differential
// suite reports a divergence. Unparseable payloads key to 0.
func TraceID(payload []byte) uint64 {
	id, kind, ok := ParseData(payload)
	if !ok {
		return 0
	}
	if kind == kindReply {
		return id | replyTraceBit
	}
	return id
}

// RequestTrace returns the recorded hop trace of a flow's request
// packet, or nil if none finished.
func RequestTrace(rec *trace.Recorder, flowID uint64) *trace.PacketTrace {
	return firstTrace(rec, flowID)
}

// ReplyTrace returns the recorded hop trace of a flow's reply packet,
// or nil if none finished.
func ReplyTrace(rec *trace.Recorder, flowID uint64) *trace.PacketTrace {
	return firstTrace(rec, flowID|replyTraceBit)
}

func firstTrace(rec *trace.Recorder, id uint64) *trace.PacketTrace {
	if pts := rec.ByID(id); len(pts) > 0 {
		return pts[0]
	}
	return nil
}

// TraceEvidence renders one substrate's recorded traces for the given
// flows as failure evidence: the route summary plus the full per-hop
// table for the request and (when present) reply record of each flow.
func TraceEvidence(label string, rec *trace.Recorder, flowIDs []uint64) string {
	var sb strings.Builder
	for _, id := range flowIDs {
		found := false
		for _, pt := range rec.ByID(id) {
			found = true
			fmt.Fprintf(&sb, "%s flow %d request: %s\n%s", label, id, pt.Summary(), pt.Format())
		}
		for _, pt := range rec.ByID(id | replyTraceBit) {
			found = true
			fmt.Fprintf(&sb, "%s flow %d reply: %s\n%s", label, id, pt.Summary(), pt.Format())
		}
		if !found {
			fmt.Fprintf(&sb, "%s flow %d: no trace recorded (packet lost before any traced hop?)\n", label, id)
		}
	}
	return sb.String()
}

// RunLivenetTraced is RunLivenet with a flow-keyed hop-trace Recorder
// installed on the network, so a divergence found afterwards can be
// explained hop by hop. Options pick the livenet shape (e.g.
// livenet.WithBatchSize(1)).
func RunLivenetTraced(sc *Scenario, routes map[uint64][]viper.Segment, deadline time.Duration, opts ...livenet.NetworkOption) (*Result, stats.Counters, *trace.Recorder) {
	rec := trace.NewRecorder(TraceID)
	res, ctrs := runLivenet(sc, routes, deadline, rec, opts...)
	return res, ctrs, rec
}
