package obs

import (
	"encoding/binary"
	"io"
	"math"

	"borgmoea/internal/reclog"
)

// QualityLog is the QLOG sidecar: a run's full quality timeline in a
// compact binary format ("BQLG"), mirroring the BTRC trace sidecar.
// Replaying a recorded run regenerates the identical timeline, so a
// recorded QLOG file and a replay-produced one compare byte-for-byte —
// the property the offline tools (borgview timeline -quality) and the
// replay tests pin.
//
// Layout (a reclog container, big-endian like BMEL and BTRC):
//
//	"BQLG" | version u8 | M u16 | maxExact u32 | mcSamples u32 |
//	K u16 | M × ref f64 | K × (len u16, name bytes)
//
// followed by fixed-width records of 68+8K bytes:
//
//	seq u64 | at f64 | evals u64 | hv f64 | epsProgress u64 |
//	archive u32 | pop u32 | restarts u64 | tournament u32 |
//	spread f64 | K × prob f64
//
// A torn trailing record (crash or signal mid-write) is tolerated on
// read, like the other sidecars.
type QualityLog struct {
	Ref       []float64
	MaxExact  int
	MCSamples int
	Operators []string
	Samples   []QualitySample
}

var qualityFormat = reclog.Format{Name: "obs: quality log", Magic: "BQLG", Version: 1}

// qualityFixedHeader is the fixed-width part of the header: M,
// maxExact, mcSamples, K.
const qualityFixedHeader = 2 + 4 + 4 + 2

// qualityRecSize is the fixed record width for K operators.
func qualityRecSize(k int) int { return 8 + 8 + 8 + 8 + 8 + 4 + 4 + 8 + 4 + 8 + 8*k }

// WriteTo serializes the log in BQLG format.
func (l *QualityLog) WriteTo(w io.Writer) (int64, error) {
	k := len(l.Operators)
	hdr := binary.BigEndian.AppendUint16(nil, uint16(len(l.Ref)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(l.MaxExact))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(l.MCSamples))
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(k))
	for _, v := range l.Ref {
		hdr = binary.BigEndian.AppendUint64(hdr, math.Float64bits(v))
	}
	for _, name := range l.Operators {
		hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(name)))
		hdr = append(hdr, name...)
	}
	return reclog.WriteAll(qualityFormat, w, hdr, l.Samples, func(buf []byte, s QualitySample) []byte {
		buf = binary.BigEndian.AppendUint64(buf, s.Seq)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.At))
		buf = binary.BigEndian.AppendUint64(buf, s.Evaluations)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Hypervolume))
		buf = binary.BigEndian.AppendUint64(buf, s.EpsProgress)
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.ArchiveSize))
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.PopulationSize))
		buf = binary.BigEndian.AppendUint64(buf, s.Restarts)
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.TournamentSize))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.FrontSpread))
		for j := 0; j < k; j++ {
			var p float64
			if j < len(s.OperatorProbs) {
				p = s.OperatorProbs[j]
			}
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p))
		}
		return buf
	})
}

// ReadQualityLog decodes a BQLG stream. A truncated trailing record is
// dropped silently (torn-tail tolerance); a malformed header or an
// unsupported version is an error.
func ReadQualityLog(r io.Reader) (*QualityLog, error) {
	rd := qualityFormat.NewReader(r)
	hdr := rd.Header(qualityFixedHeader) // zeroes after a read error, which Records reports
	m := int(binary.BigEndian.Uint16(hdr))
	l := &QualityLog{
		MaxExact:  int(binary.BigEndian.Uint32(hdr[2:])),
		MCSamples: int(binary.BigEndian.Uint32(hdr[6:])),
	}
	k := int(binary.BigEndian.Uint16(hdr[10:]))
	if m > 0 {
		refBytes := rd.Header(8 * m)
		l.Ref = make([]float64, m)
		for i := range l.Ref {
			l.Ref[i] = math.Float64frombits(binary.BigEndian.Uint64(refBytes[8*i:]))
		}
	}
	if k > 0 {
		l.Operators = make([]string, k)
		for i := range l.Operators {
			n := binary.BigEndian.Uint16(rd.Header(2))
			l.Operators[i] = string(rd.Header(int(n)))
		}
	}
	recs, err := reclog.Records(rd, qualityRecSize(k), reclog.Stream, func(rec []byte) (QualitySample, error) {
		s := QualitySample{
			Seq:            binary.BigEndian.Uint64(rec[0:]),
			At:             math.Float64frombits(binary.BigEndian.Uint64(rec[8:])),
			Evaluations:    binary.BigEndian.Uint64(rec[16:]),
			Hypervolume:    math.Float64frombits(binary.BigEndian.Uint64(rec[24:])),
			EpsProgress:    binary.BigEndian.Uint64(rec[32:]),
			ArchiveSize:    int(binary.BigEndian.Uint32(rec[40:])),
			PopulationSize: int(binary.BigEndian.Uint32(rec[44:])),
			Restarts:       binary.BigEndian.Uint64(rec[48:]),
			TournamentSize: int(binary.BigEndian.Uint32(rec[56:])),
			FrontSpread:    math.Float64frombits(binary.BigEndian.Uint64(rec[60:])),
		}
		if k > 0 {
			s.OperatorProbs = make([]float64, k)
			for j := range s.OperatorProbs {
				s.OperatorProbs[j] = math.Float64frombits(binary.BigEndian.Uint64(rec[68+8*j:]))
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	l.Samples = recs
	return l, nil
}
