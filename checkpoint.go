package hotpaths

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"hotpaths/internal/engine"
)

// Checkpoint codec: the serialized form of an Engine's complete state, written by the durability layer at epoch boundaries so recovery
// replays at most one window of WAL records instead of the full history.
//
// The payload is framed as
//
//	"HPCK"  magic
//	uint32  LE version
//	uint32  LE CRC-32C of the body
//	body    gob(checkpointBody)
//
// The body embeds the resolved Config the state was produced under;
// decoding verifies it against the recovering instance's Config, since
// restoring state into a differently-parameterised pipeline would break
// the determinism that recovery relies on.

const checkpointVersion = 1

var checkpointMagic = []byte("HPCK")

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// checkpointBody is the gob-encoded checkpoint content. engine.State is
// independent of the filter tier's mode, so a checkpoint restores into a
// System or an Engine of any shard count.
type checkpointBody struct {
	Config Config
	State  engine.State
}

// encodeCheckpoint serializes a state dump taken under cfg.
func encodeCheckpoint(cfg Config, st engine.State) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(checkpointBody{Config: cfg, State: st}); err != nil {
		return nil, fmt.Errorf("hotpaths: encode checkpoint: %w", err)
	}
	return frameCheckpoint(body.Bytes()), nil
}

// frameCheckpoint prepends the magic, version and body CRC.
func frameCheckpoint(body []byte) []byte {
	out := make([]byte, 0, len(checkpointMagic)+8+len(body))
	out = append(out, checkpointMagic...)
	out = binary.LittleEndian.AppendUint32(out, checkpointVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, checkpointCRC))
	return append(out, body...)
}

// decodeCheckpoint validates and deserializes a checkpoint payload,
// rejecting it when it was written under a different configuration.
func decodeCheckpoint(b []byte, want Config) (engine.State, error) {
	hdr := len(checkpointMagic) + 8
	if len(b) < hdr || !bytes.Equal(b[:len(checkpointMagic)], checkpointMagic) {
		return engine.State{}, fmt.Errorf("hotpaths: not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint32(b[len(checkpointMagic):]); v != checkpointVersion {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint version %d not supported", v)
	}
	body := b[hdr:]
	if got, wantCRC := crc32.Checksum(body, checkpointCRC), binary.LittleEndian.Uint32(b[len(checkpointMagic)+4:]); got != wantCRC {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint checksum mismatch")
	}
	var cb checkpointBody
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&cb); err != nil {
		return engine.State{}, fmt.Errorf("hotpaths: decode checkpoint: %w", err)
	}
	if cb.Config != want {
		return engine.State{}, fmt.Errorf("hotpaths: checkpoint was written under config %+v, recovering with %+v", cb.Config, want)
	}
	return cb.State, nil
}
