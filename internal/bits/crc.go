package bits

// CRC generator polynomials from TS 38.212 §5.1. The polynomials are
// written with the leading (degree) term implicit, low coefficients in the
// low bits: e.g. CRC24A g(D) = D^24 + D^23 + D^18 + D^17 + D^14 + D^11 +
// D^10 + D^7 + D^6 + D^5 + D^4 + D^3 + D + 1 -> 0x864CFB.
const (
	polyCRC24A = 0x864CFB // transport-block CRC (PDSCH)
	polyCRC24C = 0xB2B117 // PDCCH / polar CRC
	polyCRC16  = 0x1021   // CRC16 (PBCH payloads < 20 bits in LTE; kept for tooling)
	polyCRC11  = 0x621    // PUCCH polar CRC
)

// CRCKind selects one of the 3GPP CRC variants.
type CRCKind int

// Supported CRC variants.
const (
	CRC24A CRCKind = iota
	CRC24C
	CRC16
	CRC11
)

// Len returns the CRC length in bits.
func (k CRCKind) Len() int {
	switch k {
	case CRC24A, CRC24C:
		return 24
	case CRC16:
		return 16
	case CRC11:
		return 11
	default:
		panic("bits: unknown CRC kind")
	}
}

func (k CRCKind) poly() uint32 {
	switch k {
	case CRC24A:
		return polyCRC24A
	case CRC24C:
		return polyCRC24C
	case CRC16:
		return polyCRC16
	case CRC11:
		return polyCRC11
	default:
		panic("bits: unknown CRC kind")
	}
}

// String implements fmt.Stringer.
func (k CRCKind) String() string {
	switch k {
	case CRC24A:
		return "CRC24A"
	case CRC24C:
		return "CRC24C"
	case CRC16:
		return "CRC16"
	case CRC11:
		return "CRC11"
	default:
		return "CRC?"
	}
}

// CRC computes the CRC of an unpacked bit string, returned as a bit slice
// of k.Len() bits, MSB-first. Registers start at zero; DCI ones-prepending
// (TS 38.212 §7.3.2 prepends 24 ones before the CRC24C of a DCI payload)
// is the caller's job, see AttachDCICRC.
func CRC(k CRCKind, data []uint8) []uint8 {
	n := k.Len()
	poly := k.poly()
	var reg uint32
	top := uint32(1) << uint(n-1)
	mask := (uint32(1) << uint(n)) - 1
	for _, b := range data {
		fb := (reg>>uint(n-1))&1 ^ uint32(b&1)
		reg = (reg << 1) & mask
		if fb != 0 {
			reg ^= poly & mask
		}
	}
	_ = top
	return FromUint(uint64(reg), n)
}

// AttachCRC appends CRC(k, data) to data and returns the combined slice.
func AttachCRC(k CRCKind, data []uint8) []uint8 {
	crc := CRC(k, data)
	out := make([]uint8, 0, len(data)+len(crc))
	out = append(out, data...)
	out = append(out, crc...)
	return out
}

// CheckCRC verifies that the trailing k.Len() bits of block are the CRC of
// the preceding bits. It returns the payload (aliasing block) and whether
// the check passed. It allocates nothing: the CRC register bits are
// compared against the trailing bits directly, so per-slot decode paths
// (PDSCH transport blocks, PUCCH UCI) can run one check per candidate
// without heap traffic.
func CheckCRC(k CRCKind, block []uint8) (payload []uint8, ok bool) {
	n := k.Len()
	if len(block) < n {
		return nil, false
	}
	payload = block[:len(block)-n]
	poly := k.poly()
	mask := uint32(1)<<uint(n) - 1
	var reg uint32
	for _, b := range payload {
		fb := (reg>>uint(n-1))&1 ^ uint32(b&1)
		reg = (reg << 1) & mask
		if fb != 0 {
			reg ^= poly & mask
		}
	}
	got := block[len(block)-n:]
	for i := 0; i < n; i++ {
		if uint8(reg>>uint(n-1-i))&1 != got[i]&1 {
			return payload, false
		}
	}
	return payload, true
}

// dciCRCOnes is the number of 1-bits prepended to a DCI payload before CRC
// computation (TS 38.212 §7.3.2). The ones are not transmitted; they only
// seed the CRC so that all-zero payloads still produce a non-trivial CRC.
const dciCRCOnes = 24

// dciCRCPrefix computes CRC24C over 24 ones followed by the payload.
func dciCRCPrefix(payload []uint8) []uint8 {
	buf := make([]uint8, dciCRCOnes+len(payload))
	for i := 0; i < dciCRCOnes; i++ {
		buf[i] = 1
	}
	copy(buf[dciCRCOnes:], payload)
	return CRC(CRC24C, buf)
}

// AttachDCICRC attaches the PDCCH CRC to a DCI payload: CRC24C is computed
// over 24 prepended ones plus the payload, then the last 16 CRC bits are
// XOR-scrambled with the 16-bit RNTI (TS 38.212 §7.3.2). The returned
// slice is payload || scrambledCRC24.
func AttachDCICRC(payload []uint8, rnti uint16) []uint8 {
	crc := dciCRCPrefix(payload)
	rntiBits := FromUint(uint64(rnti), 16)
	for i := 0; i < 16; i++ {
		crc[8+i] ^= rntiBits[i]
	}
	out := make([]uint8, 0, len(payload)+24)
	out = append(out, payload...)
	out = append(out, crc...)
	return out
}

// CheckDCICRC verifies a received DCI block (payload || scrambled CRC24)
// against a hypothesised RNTI. It returns the payload and whether the CRC
// matched under that RNTI.
func CheckDCICRC(block []uint8, rnti uint16) (payload []uint8, ok bool) {
	if len(block) < 24 {
		return nil, false
	}
	payload = block[:len(block)-24]
	want := dciCRCPrefix(payload)
	got := block[len(block)-24:]
	rntiBits := FromUint(uint64(rnti), 16)
	for i := 0; i < 8; i++ {
		if want[i] != got[i] {
			return payload, false
		}
	}
	for i := 0; i < 16; i++ {
		if want[8+i]^rntiBits[i] != got[8+i] {
			return payload, false
		}
	}
	return payload, true
}

// dciCRCReg returns the CRC24C register over 24 prepended ones plus the
// payload (TS 38.212 §7.3.2): CRC's recurrence, inlined so per-candidate
// checks stay off the heap, resuming from dciOnesReg, the constant
// register state after the ones.
func dciCRCReg(payload []uint8) uint32 {
	const n = 24
	const mask = uint32(1)<<n - 1
	reg := dciOnesReg
	for _, b := range payload {
		fb := (reg>>(n-1))&1 ^ uint32(b&1)
		reg = (reg << 1) & mask
		if fb != 0 {
			reg ^= polyCRC24C
		}
	}
	return reg
}

var dciOnesReg = func() uint32 {
	ones := make([]uint8, dciCRCOnes)
	for i := range ones {
		ones[i] = 1
	}
	return uint32(ToUint(CRC(CRC24C, ones)))
}()

// receivedCRC packs the trailing 24 bits of a DCI block, MSB-first.
func receivedCRC(block []uint8) uint32 {
	var rx uint32
	for _, b := range block[len(block)-24:] {
		rx = rx<<1 | uint32(b&1)
	}
	return rx
}

// MatchDCICRC reports whether block (payload || scrambled CRC24) passes
// the DCI CRC under the hypothesised RNTI. It is CheckDCICRC without the
// payload return and without any allocation. It holds exactly when
// RecoverRNTI(block) recovers rnti; the blind decoder itself recovers
// each position's RNTI once instead of testing hypotheses.
func MatchDCICRC(block []uint8, rnti uint16) bool {
	if len(block) < 24 {
		return false
	}
	// The upper 8 CRC bits are transmitted in the clear; the lower 16 are
	// XOR-scrambled with the RNTI (MSB-first).
	return dciCRCReg(block[:len(block)-24])^uint32(rnti) == receivedCRC(block)
}

// RecoverRNTI implements the sniffer trick the paper inherits from 4G
// tools (§3.1.2): given a received DCI block whose CRC is scrambled with
// an unknown RNTI, locally recompute the CRC of the payload and XOR it
// with the received CRC. If the block decoded correctly, the upper 8 CRC
// bits (which the RNTI does not touch) match — that is the verification —
// and the XOR of the lower 16 bits *is* the RNTI. It allocates nothing:
// the blind decoder runs it once per decoded candidate position per TTI.
func RecoverRNTI(block []uint8) (payload []uint8, rnti uint16, ok bool) {
	if len(block) < 24 {
		return nil, 0, false
	}
	payload = block[:len(block)-24]
	x := dciCRCReg(payload) ^ receivedCRC(block)
	if x>>16 != 0 {
		return payload, 0, false
	}
	return payload, uint16(x), true
}
