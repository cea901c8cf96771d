package daemon

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/token"
)

// echoServer accepts TCP connections and echoes each until its client
// half-closes.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGatewayReconcileAfterClose reconciles the ledger the moment each
// of a run of streams closes, while the stream's trailing acks may
// still be crossing the routers: no read order may report a mismatch
// that is not there.
func TestGatewayReconcileAfterClose(t *testing.T) {
	gs, err := StartGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	target := echoServer(t)
	msg := bytes.Repeat([]byte("reconcile"), 4000)
	for i := 0; i < 50; i++ {
		conn, err := gateway.DialSocks(gs.Addr(), target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("stream %d: echoed %d bytes (err %v), want %d", i, len(got), err, len(msg))
		}
		if problems := gs.Reconcile(); problems != nil {
			t.Fatalf("stream %d: false mismatch: %v", i, problems)
		}
	}
}

// TestGatewayReconcileReportsMismatch bills packets no router
// authorized: after its bounded wait Reconcile must still report it.
func TestGatewayReconcileReportsMismatch(t *testing.T) {
	gs, err := StartGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	gs.col.AddAccountSource("phantom", func() map[uint32]token.Usage {
		return map[uint32]token.Usage{7: {Packets: 3, Bytes: 300}}
	})
	start := time.Now()
	problems := gs.Reconcile()
	if len(problems) != 1 || !strings.Contains(problems[0], "bills 3 packets but forwarding plane authorized 0") {
		t.Fatalf("problems = %v, want the phantom 3-packet bill", problems)
	}
	if waited := time.Since(start); waited < reconcileWait {
		t.Fatalf("reported after %v, before the %v settling wait", waited, reconcileWait)
	}
}
