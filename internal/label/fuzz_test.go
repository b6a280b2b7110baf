package label

import (
	"bytes"
	"testing"
)

// FuzzDecodeBinary feeds arbitrary bytes to DecodeBinary, the decoder the
// single-level store runs on label bytes read back from disk, and enforces
// its contract: it never panics, and a label it accepts was encoded
// canonically — re-encoding reproduces exactly the bytes it consumed, and
// decoding that encoding yields an Equal label with no bytes left over.
func FuzzDecodeBinary(f *testing.F) {
	for _, l := range []Label{
		{},
		New(L1),
		New(L0, P(1, L3)),
		New(L1, P(3, Star), P(5, L2), P(1<<40, L0)),
		New(L2, P(2, HiStar), P(7, L1)),
	} {
		enc := l.AppendBinary(nil)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0xff))
	}
	f.Add([]byte{byte(L1), 0x80, 0x00}) // zero entries in an overlong varint

	f.Fuzz(func(t *testing.T, data []byte) {
		l, rest, err := DecodeBinary(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		enc := l.AppendBinary(nil)
		if !bytes.Equal(enc, consumed) {
			t.Fatalf("decoded %v from non-canonical bytes %x (canonical %x)", l, consumed, enc)
		}
		again, tail, err := DecodeBinary(enc)
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-decoding %v: err %v, %d trailing bytes", l, err, len(tail))
		}
		if !again.Equal(l) || again.Fingerprint() != l.Fingerprint() {
			t.Fatalf("round trip changed %v into %v", l, again)
		}
	})
}
