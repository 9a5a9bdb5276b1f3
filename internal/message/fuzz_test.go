package message

import (
	"bytes"
	"testing"

	"adaptiveqos/internal/obs"
)

// FuzzUnwrap feeds arbitrary datagrams through the receive path every
// node runs — Unwrapper.Unwrap, then Decode on a completed frame — with
// the flight recorder on so traced envelopes parse their hop blob.
// Neither step may panic, and neither may write to the datagram:
// transports hand every recipient of one send the same read-only bytes.
// The seed corpus in testdata/fuzz/FuzzUnwrap (whole, fragment, traced
// whole, traced fragment, truncated trace blob, bad tag) replays under
// plain go test.
func FuzzUnwrap(f *testing.F) {
	obs.SetTraceEnabled(true)
	f.Cleanup(func() {
		obs.SetTraceEnabled(false)
		obs.ResetFlight()
	})
	f.Fuzz(func(t *testing.T, datagram []byte) {
		orig := bytes.Clone(datagram)
		frame, err := NewUnwrapper().Unwrap("peer", datagram)
		if err == nil && frame != nil {
			_, _ = Decode(frame)
		}
		if !bytes.Equal(datagram, orig) {
			t.Fatalf("receive path modified its datagram:\n got %x\nwant %x", datagram, orig)
		}
	})
}
