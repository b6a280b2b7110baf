package label

// Fingerprint is a compact identity for an immutable label, used as a map
// key by the store's label index and by ContainerFindLabeled.  Labels with
// the same fingerprint are Equal with overwhelming probability.
//
// A fingerprint is the FNV-1a digest of the label's canonical form (the
// default level followed by the sorted category/level pairs).  Because the
// representation is canonical, the digest is computed exactly once, at
// construction, and stored in the Label; Fingerprint is a field read.
type Fingerprint uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvU64(h uint64, v uint64) uint64 {
	// Little-endian byte order, matching encoding/binary.LittleEndian.
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// fingerprintCanonical digests a canonical pair slice.
func fingerprintCanonical(def Level, pairs []Pair) Fingerprint {
	h := fnvByte(fnvOffset64, byte(def))
	for _, p := range pairs {
		h = fnvU64(h, uint64(p.Category))
		h = fnvByte(h, byte(p.Level))
	}
	return Fingerprint(h)
}

// Fingerprint returns the label's stored fingerprint.  For the zero Label
// (which never went through a constructor) it is computed on the fly.
func (l Label) Fingerprint() Fingerprint {
	if l.fp != 0 {
		return l.fp
	}
	return fingerprintCanonical(l.def, l.pairs)
}
