// Package pcapio serializes the synthesized packet traces as genuine
// libpcap capture files — Ethernet/IPv4/TCP frames with correct
// checksumless headers — and parses such files back into packet.Packet
// records.
//
// This makes the synthetic substrate interoperable with standard
// tooling: a trace written by this package opens in tcpdump/Wireshark,
// and conversely the flow meter can run on (synthetic or re-exported)
// captures. Only the subset needed for the study is implemented:
// little-endian pcap, LINKTYPE_ETHERNET, IPv4, TCP, no options beyond
// padding, no fragmentation.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"vqoe/internal/packet"
)

// pcap global header constants.
const (
	magicMicros   = 0xa1b2c3d4
	versionMajor  = 2
	versionMinor  = 4
	linkEthernet  = 1
	maxSnapLen    = 65535
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	etherTypeIPv4 = 0x0800
)

// subscriberIP is the client address written for the subscriber side.
// Passive captures at the Gn interface see one private address per
// subscriber session; a fixed one suffices for single-subscriber
// traces, and the port disambiguates flows.
var subscriberIP = net.IPv4(10, 0, 0, 2)

// Writer emits packets into a pcap stream.
type Writer struct {
	w     io.Writer
	base  time.Time
	wrote bool
}

// NewWriter writes the pcap global header and returns the writer.
// Packet times (seconds) are mapped onto wall-clock microseconds
// starting at base.
func NewWriter(w io.Writer, base time.Time) (*Writer, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkEthernet)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcapio: writing header: %w", err)
	}
	return &Writer{w: w, base: base}, nil
}

// WritePacket serializes one packet as an Ethernet/IPv4/TCP frame.
// The capture is snap-length limited to the headers, exactly like a
// real header-only probe: the record's original-length field and the
// IP total-length field still describe the full frame, so payload
// sizes survive without shipping payload bytes.
func (pw *Writer) WritePacket(p packet.Packet) error {
	frame := buildFrame(p)
	ts := pw.base.Add(time.Duration(p.Time * float64(time.Second)))
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(frame)+p.PayloadLen))
	if _, err := pw.w.Write(rec); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	pw.wrote = true
	return err
}

// WriteAll writes a whole trace.
func (pw *Writer) WriteAll(pkts []packet.Packet) error {
	for _, p := range pkts {
		if err := pw.WritePacket(p); err != nil {
			return err
		}
	}
	return nil
}

func buildFrame(p packet.Packet) []byte {
	// headers only; length fields carry the payload size
	frame := make([]byte, ethHeaderLen+ipv4HeaderLen+tcpHeaderLen)

	// Ethernet: synthetic MACs encode the direction
	copy(frame[0:6], []byte{0x02, 0, 0, 0, 0, byte(1 + p.Dir)})  // dst
	copy(frame[6:12], []byte{0x02, 0, 0, 0, 0, byte(2 - p.Dir)}) // src
	binary.BigEndian.PutUint16(frame[12:], etherTypeIPv4)

	// IPv4
	ip := frame[ethHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:], uint16(ipv4HeaderLen+tcpHeaderLen+p.PayloadLen))
	ip[8] = 64 // TTL
	ip[9] = 6  // TCP
	srcIP, dstIP := endpointIPs(p)
	copy(ip[12:16], srcIP.To4())
	copy(ip[16:20], dstIP.To4())

	// TCP
	tcp := ip[ipv4HeaderLen:]
	srcPort, dstPort := endpointPorts(p)
	binary.BigEndian.PutUint16(tcp[0:], uint16(srcPort))
	binary.BigEndian.PutUint16(tcp[2:], uint16(dstPort))
	binary.BigEndian.PutUint32(tcp[4:], p.Seq)
	binary.BigEndian.PutUint32(tcp[8:], p.AckNo)
	tcp[12] = (tcpHeaderLen / 4) << 4
	tcp[13] = tcpFlagBits(p.Flags)
	binary.BigEndian.PutUint16(tcp[14:], 65535) // window

	return frame
}

func endpointIPs(p packet.Packet) (src, dst net.IP) {
	server := net.ParseIP(p.Flow.ServerIP)
	if server == nil {
		server = net.IPv4(192, 0, 2, 1)
	}
	if p.Dir == packet.Up {
		return subscriberIP, server
	}
	return server, subscriberIP
}

func endpointPorts(p packet.Packet) (src, dst int) {
	if p.Dir == packet.Up {
		return p.Flow.ClientPort, p.Flow.ServerPort
	}
	return p.Flow.ServerPort, p.Flow.ClientPort
}

func tcpFlagBits(f packet.Flags) byte {
	var b byte
	if f.Has(packet.FIN) {
		b |= 0x01
	}
	if f.Has(packet.SYN) {
		b |= 0x02
	}
	if f.Has(packet.RST) {
		b |= 0x04
	}
	if f.Has(packet.PSH) {
		b |= 0x08
	}
	if f.Has(packet.ACK) {
		b |= 0x10
	}
	return b
}

// Reader parses a pcap stream written by this package (or any
// little-endian microsecond Ethernet capture of IPv4/TCP traffic).
type Reader struct {
	r    io.Reader
	base time.Time
	set  bool
	// hosts resolves server endpoints back to names; optional.
	hosts map[string]string
	// file is the capture Open opened, nil for a NewReader stream.
	file *os.File
}

// Open opens the capture file at path with server names restored from
// a hosts file ("ip host" per line): hostsPath, or when that is empty
// the companion <path>.hosts that qoepcap -export writes. A capture
// whose hosts file cannot be read still opens — Hosts then reports 0
// and no media host will be recognised. Close releases the file.
func Open(path, hostsPath string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pr, err := NewReader(bufio.NewReader(f))
	if err != nil {
		f.Close()
		return nil, err
	}
	pr.file = f
	if hostsPath == "" {
		hostsPath = path + ".hosts"
	}
	if hf, err := os.Open(hostsPath); err == nil {
		defer hf.Close()
		sc := bufio.NewScanner(hf)
		for sc.Scan() {
			if parts := strings.Fields(sc.Text()); len(parts) == 2 {
				pr.ResolveHost(parts[0], parts[1])
			}
		}
	}
	return pr, nil
}

// Close releases the file behind a reader Open returned.
func (pr *Reader) Close() error {
	if pr.file == nil {
		return nil
	}
	return pr.file.Close()
}

// Hosts is the number of server names the reader can restore.
func (pr *Reader) Hosts() int { return len(pr.hosts) }

// NewReader validates the global header.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcapio: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicMicros {
		return nil, fmt.Errorf("pcapio: not a little-endian microsecond pcap")
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linkEthernet {
		return nil, fmt.Errorf("pcapio: unsupported link type %d", lt)
	}
	return &Reader{r: r, hosts: map[string]string{}}, nil
}

// ResolveHost registers a server IP → hostname mapping (a real probe
// learns these from DNS or TLS SNI; the reader accepts them upfront).
func (pr *Reader) ResolveHost(ip, host string) { pr.hosts[ip] = host }

// Next returns the next packet, or io.EOF at stream end. Non-TCP and
// non-IPv4 frames are skipped.
func (pr *Reader) Next() (packet.Packet, error) {
	for {
		rec := make([]byte, 16)
		if _, err := io.ReadFull(pr.r, rec); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			return packet.Packet{}, err
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		capLen := binary.LittleEndian.Uint32(rec[8:])
		if capLen > maxSnapLen {
			return packet.Packet{}, fmt.Errorf("pcapio: frame of %d bytes exceeds snap length", capLen)
		}
		frame := make([]byte, capLen)
		if _, err := io.ReadFull(pr.r, frame); err != nil {
			return packet.Packet{}, fmt.Errorf("pcapio: truncated frame: %w", err)
		}
		ts := time.Unix(int64(sec), int64(usec)*1000)
		if !pr.set {
			pr.base = ts
			pr.set = true
		}
		p, ok := pr.decode(frame, ts)
		if !ok {
			continue
		}
		return p, nil
	}
}

// ReadAll drains the stream.
func (pr *Reader) ReadAll() ([]packet.Packet, error) {
	var out []packet.Packet
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func (pr *Reader) decode(frame []byte, ts time.Time) (packet.Packet, bool) {
	if len(frame) < ethHeaderLen+ipv4HeaderLen+tcpHeaderLen {
		return packet.Packet{}, false
	}
	if binary.BigEndian.Uint16(frame[12:]) != etherTypeIPv4 {
		return packet.Packet{}, false
	}
	ip := frame[ethHeaderLen:]
	if ip[0]>>4 != 4 || ip[9] != 6 {
		return packet.Packet{}, false
	}
	// the header length is the packet's word: one that leaves no TCP
	// header inside the frame, or puts it inside the IP header, is not a
	// packet of ours
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || ihl+tcpHeaderLen > len(ip) {
		return packet.Packet{}, false
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:]))
	srcIP := net.IP(ip[12:16]).String()
	dstIP := net.IP(ip[16:20]).String()

	tcp := ip[ihl:]
	dataOff := int(tcp[12]>>4) * 4
	payload := totalLen - ihl - dataOff
	if payload < 0 {
		payload = 0
	}
	srcPort := int(binary.BigEndian.Uint16(tcp[0:]))
	dstPort := int(binary.BigEndian.Uint16(tcp[2:]))

	p := packet.Packet{
		Time:       ts.Sub(pr.base).Seconds(),
		Seq:        binary.BigEndian.Uint32(tcp[4:]),
		AckNo:      binary.BigEndian.Uint32(tcp[8:]),
		PayloadLen: payload,
		Flags:      decodeFlags(tcp[13]),
	}
	// direction: the subscriber side is the 10.0.0.0/8 address
	if srcIP == subscriberIP.String() {
		p.Dir = packet.Up
		p.Flow = packet.FlowKey{
			ServerIP: dstIP, ServerPort: dstPort, ClientPort: srcPort,
			Host: pr.hosts[dstIP],
		}
	} else {
		p.Dir = packet.Down
		p.Flow = packet.FlowKey{
			ServerIP: srcIP, ServerPort: srcPort, ClientPort: dstPort,
			Host: pr.hosts[srcIP],
		}
	}
	return p, true
}

func decodeFlags(b byte) packet.Flags {
	var f packet.Flags
	if b&0x01 != 0 {
		f |= packet.FIN
	}
	if b&0x02 != 0 {
		f |= packet.SYN
	}
	if b&0x04 != 0 {
		f |= packet.RST
	}
	if b&0x08 != 0 {
		f |= packet.PSH
	}
	if b&0x10 != 0 {
		f |= packet.ACK
	}
	return f
}
