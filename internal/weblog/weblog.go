// Package weblog renders simulated sessions into the proxy weblog
// records the paper's pipeline consumes (§3.1), and reverse-engineers
// ground truth back out of cleartext request URIs (§3.2).
//
// A single SessionTrace yields two views of the same traffic:
//
//   - the cleartext view carries full request URIs whose query
//     parameters (id, cpn, itag, mime, clen, and the playback statistic
//     reports) embed the ground truth;
//   - the encrypted view keeps only what TLS leaves visible to an
//     operator: timestamps, server name and address, object sizes, and
//     the transport statistics annotated by the proxy.
package weblog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/url"

	"vqoe/internal/player"
)

// Hosts used by the service's delivery machinery.
const (
	HostPage  = "m.youtube.com"
	HostImage = "i.ytimg.com"
	HostStats = "s.youtube.com"
)

// Entry is one proxy weblog line: an HTTP(S) transaction annotated
// with transport-layer performance metrics.
type Entry struct {
	// Timestamp is the request time, in seconds on the subscriber's
	// timeline.
	Timestamp float64
	// Subscriber is the anonymized subscriber identifier.
	Subscriber string
	// Host is the server name (from the Host header or TLS SNI).
	Host string
	// URI is the request path+query. Empty for encrypted flows.
	URI string
	// Encrypted marks TLS transactions.
	Encrypted bool
	// ServerIP and ServerPort identify the remote endpoint.
	ServerIP   string
	ServerPort int
	// Bytes is the response object size.
	Bytes int
	// TransactionSec is the transaction duration.
	TransactionSec float64

	// Transport-layer annotations (Table 1, left column).
	RTTMin, RTTAvg, RTTMax float64
	BDP                    float64
	BIFAvg, BIFMax         float64
	LossPct, RetransPct    float64

	// Proxy cache/compression markers; such entries are removed during
	// data preparation (§3.3).
	Cached, Compressed bool

	// Operator-side subscriber metadata joined onto the traffic feed:
	// serving region, device class, and the plan's quality cap. These
	// never come from the packets themselves — an ISP joins them from
	// its subscriber database — and they key the fleet-level cohort
	// rollups. Optional; absent on captures without a metadata join.
	Region string `json:",omitempty"`
	Device string `json:",omitempty"`
	Cap    string `json:",omitempty"`
}

// AppendCohortKey appends the canonical key of a region/device/cap
// triple to b: each string behind its length as a minimal uvarint, the
// cohort suffix of a wire entry record as encoders write it. Equal
// triples have equal keys, and the all-empty triple's is three zero
// bytes. The engine indexes cohorts by it.
func AppendCohortKey[S string | []byte](b []byte, region, device, cp S) []byte {
	for _, s := range [...]S{region, device, cp} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b
}

// SplitCohortKey is AppendCohortKey's inverse: the region, device and
// cap a canonical key spells, as substrings of it.
func SplitCohortKey(key string) (parts [3]string) {
	for i := range parts {
		n, shift := 0, 0
		for ; key[0] >= 0x80; key, shift = key[1:], shift+7 {
			n |= int(key[0]&0x7f) << shift
		}
		n |= int(key[0]) << shift
		parts[i], key = key[1:1+n], key[1+n:]
	}
	return parts
}

// CanonicalCohortKey returns a cohort suffix span received as region,
// device and cp as its canonical key: span itself when every length in
// it is one byte, which one length comparison shows, else the key
// rebuilt at the end of *scratch — for a length sent in more bytes than
// it needs, or a string of 128 bytes or more.
func CanonicalCohortKey(scratch *[]byte, span, region, device, cp []byte) []byte {
	if len(span) == 3+len(region)+len(device)+len(cp) {
		return span
	}
	off := len(*scratch)
	*scratch = AppendCohortKey(*scratch, region, device, cp)
	return (*scratch)[off:]
}

// IsVideoHost reports whether the entry hits the media delivery CDN
// (googlevideo.com edge nodes) rather than page or stats machinery.
func (e Entry) IsVideoHost() bool { return classifyHost(e.Host) == HostMedia }

// IsServiceHost reports whether the entry belongs to the video service
// at all (media, page, thumbnails or stats) — the domain filter of
// §5.2 keeps exactly these.
func (e Entry) IsServiceHost() bool { return classifyHost(e.Host) != HostOther }

// HostClass partitions server names by their role in the delivery
// machinery. Hot paths classify a host once at ingest and branch on the
// class afterwards, instead of re-running the string comparisons per
// decision.
type HostClass uint8

const (
	// HostOther is any host outside the video service; the §5.2 domain
	// filter discards these.
	HostOther HostClass = iota
	// HostSignal is service signalling without boundary meaning:
	// thumbnails (i.ytimg.com) and playback stats (s.youtube.com).
	HostSignal
	// HostWatchPage is the watch-page load (m.youtube.com) — a §5.2
	// session boundary.
	HostWatchPage
	// HostMedia is a chunk-serving CDN edge (googlevideo.com).
	HostMedia
)

// ClassifyHost maps a server name to its HostClass: the one statement
// of the §5.2 domain filter, which IsServiceHost and IsVideoHost read.
func ClassifyHost(host string) HostClass { return classifyHost(host) }

// ClassifyHostBytes is ClassifyHost for a name still in a decode
// buffer: same partition (one body serves both), no string built.
func ClassifyHostBytes(host []byte) HostClass { return classifyHost(host) }

func classifyHost[S string | []byte](host S) HostClass {
	// string(host) in a switch or a comparison does not allocate
	switch string(host) {
	case HostPage:
		return HostWatchPage
	case HostImage, HostStats:
		return HostSignal
	}
	if len(host) > len(videoHostSuffix) &&
		string(host[len(host)-len(videoHostSuffix):]) == videoHostSuffix {
		return HostMedia
	}
	return HostOther
}

const videoHostSuffix = ".googlevideo.com"

// videoHost derives the CDN edge host for a video, stable per content.
func videoHost(videoID string) string {
	h := fnv.New32a()
	h.Write([]byte(videoID))
	return fmt.Sprintf("r%d---sn-%04x.googlevideo.com", 1+h.Sum32()%8, h.Sum32()&0xffff)
}

// serverIP derives a stable pseudo address for a host.
func serverIP(host string) string {
	h := fnv.New32a()
	h.Write([]byte(host))
	v := h.Sum32()
	return fmt.Sprintf("173.194.%d.%d", (v>>8)&0xff, v&0xff)
}

// Options control rendering of a trace into weblog entries.
type Options struct {
	// Subscriber stamps every entry.
	Subscriber string
	// Encrypted selects the TLS view: URIs are stripped and the port
	// becomes 443.
	Encrypted bool
	// TimeOffset shifts the session onto the subscriber timeline.
	TimeOffset float64
	// Region, Device and Cap stamp the subscriber-metadata cohort
	// fields onto every entry (empty = no metadata join).
	Region, Device, Cap string
}

// FromTrace renders a session into its weblog entries, chunks and
// signalling interleaved in time order.
func FromTrace(tr *player.SessionTrace, opts Options) []Entry {
	port := 80
	if opts.Encrypted {
		port = 443
	}
	vhost := videoHost(tr.Video.ID)
	entries := make([]Entry, 0, len(tr.Chunks)+len(tr.Signals))

	for _, sig := range tr.Signals {
		e := Entry{
			Timestamp:      opts.TimeOffset + sig.At,
			Subscriber:     opts.Subscriber,
			Encrypted:      opts.Encrypted,
			ServerPort:     port,
			TransactionSec: 0.05,
			Region:         opts.Region,
			Device:         opts.Device,
			Cap:            opts.Cap,
		}
		switch sig.Kind {
		case player.SignalPageLoad:
			e.Host = HostPage
			e.Bytes = 60_000
			if !opts.Encrypted {
				e.URI = "/watch?v=" + tr.Video.ID
			}
		case player.SignalImageLoad:
			e.Host = HostImage
			e.Bytes = 12_000
			if !opts.Encrypted {
				e.URI = "/vi/" + tr.Video.ID + "/hqdefault.jpg"
			}
		case player.SignalStatsReport:
			e.Host = HostStats
			e.Bytes = 400
			if !opts.Encrypted {
				e.URI = statsReportURI(tr, sig)
			}
		}
		e.ServerIP = serverIP(e.Host)
		entries = append(entries, e)
	}

	for _, c := range tr.Chunks {
		e := Entry{
			Timestamp:      opts.TimeOffset + c.Stats.Start,
			Subscriber:     opts.Subscriber,
			Host:           vhost,
			Encrypted:      opts.Encrypted,
			ServerIP:       serverIP(vhost),
			ServerPort:     port,
			Bytes:          c.Size,
			TransactionSec: c.Stats.Duration,
			RTTMin:         c.Stats.RTTMin,
			RTTAvg:         c.Stats.RTTAvg,
			RTTMax:         c.Stats.RTTMax,
			BDP:            c.Stats.BDP,
			BIFAvg:         c.Stats.BIFAvg,
			BIFMax:         c.Stats.BIFMax,
			LossPct:        c.Stats.LossPct,
			RetransPct:     c.Stats.RetransPct,
			Region:         opts.Region,
			Device:         opts.Device,
			Cap:            opts.Cap,
		}
		if !opts.Encrypted {
			e.URI = chunkURI(tr, c)
		}
		entries = append(entries, e)
	}

	sortEntries(entries)
	return entries
}

// chunkURI builds the /videoplayback request with the metadata
// parameters the ground-truth extraction relies on: the video id, the
// 16-character session ID (cpn), the itag encoding the representation,
// the content type, and the object length.
func chunkURI(tr *player.SessionTrace, c player.Chunk) string {
	mime := "video/mp4"
	if c.Audio {
		mime = "audio/mp4"
	}
	q := url.Values{}
	q.Set("id", tr.Video.ID)
	q.Set("cpn", tr.SessionID)
	q.Set("itag", fmt.Sprintf("%d", c.Itag))
	q.Set("mime", mime)
	q.Set("clen", fmt.Sprintf("%d", c.Size))
	q.Set("seq", fmt.Sprintf("%d", c.Seq))
	return "/videoplayback?" + q.Encode()
}

// statsReportURI builds the periodic playback report. The final report
// summarizes the session: watched/abandoned flag, stall count and
// cumulative stall duration in milliseconds.
func statsReportURI(tr *player.SessionTrace, sig player.Signal) string {
	q := url.Values{}
	q.Set("docid", tr.Video.ID)
	q.Set("cpn", tr.SessionID)
	q.Set("event", "streamingstats")
	if sig.Final {
		q.Set("final", "1")
		q.Set("st", fmt.Sprintf("%d", tr.StallCount()))
		q.Set("sd", fmt.Sprintf("%d", int(tr.TotalStallSeconds()*1000)))
		q.Set("vt", fmt.Sprintf("%.3f", tr.Duration))
		if tr.Abandoned {
			q.Set("ab", "1")
		}
	}
	return "/api/stats/qoe?" + q.Encode()
}

// sortEntries orders entries by timestamp (stable insertion sort; the
// input is nearly sorted already).
func sortEntries(es []Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Timestamp < es[j-1].Timestamp; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
