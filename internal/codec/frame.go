package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Checkpoint files (DESIGN.md §16) share one frame: a 4-byte magic
// naming the kind of checkpoint, a uint16 payload layout version, a
// uint32 CRC-32C over the payload, then the payload. OpenFrame verifies
// all three before a decoder sees a payload byte, so a torn write, a
// flipped bit or a file of the wrong kind is refused with an error
// instead of being restored.

// Checkpoint kinds, by frame magic.
const (
	// InstanceMagic frames a control-plane instance checkpoint
	// (internal/serve): heraclesd's on-disk snapshots, supervisor
	// restart points and migration bodies.
	InstanceMagic = "HRCF"
	// EngineMagic frames a bare engine checkpoint (engine.WriteFile):
	// cmd/cluster -checkpoint/-resume and heracles.ReadCheckpoint.
	EngineMagic = "HRCE"
)

// kindNames names each frame kind in refusal errors.
var kindNames = map[string]string{
	InstanceMagic: "an instance checkpoint",
	EngineMagic:   "an engine checkpoint",
}

// FrameHeaderLen is the frame header: magic, version and checksum.
const FrameHeaderLen = 4 + 2 + 4

// crcTable is the Castagnoli polynomial, the CRC-32C used by
// filesystems and storage protocols for exactly this job.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends a frame of the given kind and payload version to
// buf. fn appends the payload to the buffer it is given and returns the
// extended buffer — the signature of an AppendBinary-style encoder — so
// framing costs no intermediate copy.
func AppendFrame(buf []byte, magic string, version uint16, fn func([]byte) []byte) []byte {
	start := len(buf)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = fn(buf)
	binary.LittleEndian.PutUint32(buf[start+6:], crc32.Checksum(buf[start+FrameHeaderLen:], crcTable))
	return buf
}

// OpenFrame verifies that data is a frame of the given kind and payload
// version with an intact checksum, and returns its payload (a view into
// data). Anything else — another kind, JSON, a truncated header,
// version skew, a checksum mismatch — is an error naming what was found.
func OpenFrame(data []byte, magic string, version uint16) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, fmt.Errorf("checkpoint file holds %s, want %s", describe(data), kindNames[magic])
	}
	if len(data) < FrameHeaderLen {
		return nil, fmt.Errorf("checkpoint file truncated: %d bytes, frame header is %d", len(data), FrameHeaderLen)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != version {
		return nil, fmt.Errorf("checkpoint file layout version %d, this build reads version %d", v, version)
	}
	payload := data[FrameHeaderLen:]
	if sum, got := binary.LittleEndian.Uint32(data[6:]), crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("checkpoint file checksum mismatch: header crc32c:%08x, payload crc32c:%08x — file is corrupt", sum, got)
	}
	return payload, nil
}

// describe names what a refused checkpoint file holds.
func describe(data []byte) string {
	if len(data) >= 4 {
		if kind, ok := kindNames[string(data[:4])]; ok {
			return kind
		}
	}
	if t := bytes.TrimSpace(data); len(t) > 0 && (t[0] == '{' || t[0] == '[') {
		return "JSON"
	}
	if len(data) == 0 {
		return "no data"
	}
	return fmt.Sprintf("no checkpoint frame (leading bytes %q)", data[:min(len(data), 4)])
}

// WriteFile replaces path with data atomically: the bytes land in a
// synced temp file first and rename over path (a crash mid-write never
// clobbers the live file), with the previous generation rotated to
// "<path>.1" so one corrupted write still leaves a valid file to fall
// back to. A crash between the two renames leaves only "<path>.1";
// readers treat that orphan as the file.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".1"); err != nil {
			return err
		}
	}
	return os.Rename(tmp, path)
}
