package workload

import "routesync/internal/netsim"

// AudioConfig parameterizes a constant-bit-rate audio stream — the
// packet-audio workload of the paper's Figure 3 (the December 1992 Packet
// Video workshop audiocast).
type AudioConfig struct {
	// Rate is packets per second (typical packet audio: 50 pps at 20 ms
	// framing).
	Rate float64
	// Duration of the stream in seconds (paper's figure: 600 s).
	Duration float64
}

// audioSize is the size of each audio packet in bytes: 20 ms of 8 kHz
// PCM plus headers, the vat default era framing.
const audioSize = 180

// AudioStream sends CBR traffic from src to dst and records which frames
// arrive.
type AudioStream struct {
	net      *netsim.Network
	src, dst *netsim.Node
	cfg      AudioConfig
	count    int
	received []bool
	start    float64
}

// NewAudioStream wires the stream; Start schedules it. It panics on
// invalid config.
func NewAudioStream(src, dst *netsim.Node, cfg AudioConfig) *AudioStream {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		panic("workload: audio rate and duration must be positive")
	}
	count := int(cfg.Rate * cfg.Duration)
	s := &AudioStream{
		net:      src.Net(),
		src:      src,
		dst:      dst,
		cfg:      cfg,
		count:    count,
		received: make([]bool, count),
	}
	if dst.OnDeliver == nil {
		dst.OnDeliver = make(map[netsim.Kind]func(*netsim.Packet))
	}
	dst.OnDeliver[netsim.KindData] = func(pkt *netsim.Packet) {
		if pkt.Src != src.ID {
			return
		}
		seq := int(pkt.Seq)
		if seq >= 0 && seq < count {
			s.received[seq] = true
		}
	}
	return s
}

// Start schedules the whole stream beginning at the given absolute time.
func (s *AudioStream) Start(at float64) {
	s.start = at
	gap := 1 / s.cfg.Rate
	for i := 0; i < s.count; i++ {
		i := i
		s.src.Schedule(at+float64(i)*gap, "audio-frame", func() {
			pkt := s.net.NewPacket(netsim.KindData, s.src.ID, s.dst.ID, audioSize)
			pkt.Seq = int64(i)
			s.net.Inject(pkt)
		})
	}
}

// Result returns the delivery bitmap and run geometry.
func (s *AudioStream) Result() AudioResult {
	return AudioResult{
		Received: append([]bool(nil), s.received...),
		Gap:      1 / s.cfg.Rate,
		Start:    s.start,
	}
}

// AudioResult is a completed stream: Received[i] tells whether frame i
// arrived; frames are Gap seconds apart starting at Start.
type AudioResult struct {
	Received []bool
	Gap      float64
	Start    float64
}

// Lost returns the number of frames lost.
func (r AudioResult) Lost() int {
	lost := 0
	for _, ok := range r.Received {
		if !ok {
			lost++
		}
	}
	return lost
}

// LossRate returns the overall fraction lost.
func (r AudioResult) LossRate() float64 {
	if len(r.Received) == 0 {
		return 0
	}
	return float64(r.Lost()) / float64(len(r.Received))
}

// Outage is a maximal run of consecutive lost frames — the paper's
// Figure 3 y-axis is the duration of each such audio outage.
type Outage struct {
	// Start is the send time of the first lost frame.
	Start float64
	// Duration is the outage length in seconds (lost frames × gap).
	Duration float64
}

// Outages extracts the outage list from the delivery bitmap.
func (r AudioResult) Outages() []Outage {
	var out []Outage
	runStart := -1
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		out = append(out, Outage{
			Start:    r.Start + float64(runStart)*r.Gap,
			Duration: float64(end-runStart) * r.Gap,
		})
		runStart = -1
	}
	for i, ok := range r.Received {
		if !ok {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		flush(i)
	}
	flush(len(r.Received))
	return out
}

// LossRateIn returns the loss fraction among frames sent in [from, to).
func (r AudioResult) LossRateIn(from, to float64) float64 {
	sent, lost := 0, 0
	for i, ok := range r.Received {
		t := r.Start + float64(i)*r.Gap
		if t < from || t >= to {
			continue
		}
		sent++
		if !ok {
			lost++
		}
	}
	if sent == 0 {
		return 0
	}
	return float64(lost) / float64(sent)
}
