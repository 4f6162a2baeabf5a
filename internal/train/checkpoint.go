package train

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"

	"graph2par/internal/auggraph"
	"graph2par/internal/hgt"
)

// Checkpoint files carry a fixed-size header in front of the gob payload
// so a truncated, corrupted or foreign file fails with a clear error
// instead of an opaque gob decode error or a silent shape mismatch:
//
//	bytes 0..7   magic "G2PCKPT\n"
//	bytes 8..11  format version (uint32 LE)
//	bytes 12..19 payload length (uint64 LE)
//	bytes 20..23 payload CRC-32 (IEEE, uint32 LE)
//	bytes 24..   gob-encoded Checkpoint
const (
	ckptMagic   = "G2PCKPT\n"
	ckptVersion = 1
	ckptHdrLen  = 24
)

// Checkpoint is a serializable trained Graph2Par model: configuration,
// weights and the aug-AST vocabulary it was trained with. Files written
// with a mid-training snapshot in a `Train` field still load: gob skips
// stream fields the struct does not declare.
type Checkpoint struct {
	Config hgt.Config
	Params []ParamBlob
	Kinds  []string
	Attrs  []string
	Types  []string
	Graph  GraphOptionsBlob
}

// ParamBlob is one named weight matrix.
type ParamBlob struct {
	Name string
	Rows int
	Cols int
	Data []float64
}

// GraphOptionsBlob mirrors auggraph.Options without the function map.
type GraphOptionsBlob struct {
	CFG, Lexical, Reverse, Normalize bool
}

// SaveCheckpoint writes the model, vocabulary and graph options to path.
func SaveCheckpoint(path string, model *hgt.Model, vocab *auggraph.Vocab, opts auggraph.Options) error {
	ck := &Checkpoint{
		Config: model.Cfg,
		Graph:  GraphOptionsBlob{CFG: opts.CFG, Lexical: opts.Lexical, Reverse: opts.Reverse, Normalize: opts.Normalize},
	}
	for _, p := range model.Params.All() {
		ck.Params = append(ck.Params, ParamBlob{
			Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols,
			Data: append([]float64(nil), p.W.Data...),
		})
	}
	ck.Kinds, ck.Attrs, ck.Types = vocabTables(vocab)

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("train: encoding checkpoint: %w", err)
	}
	hdr := make([]byte, ckptHdrLen)
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(payload.Bytes()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCheckpoint restores a model, its vocabulary and graph options. It
// verifies the header magic, format version, payload length and checksum
// before decoding, so damaged or foreign files are rejected with a
// descriptive error.
func LoadCheckpoint(path string) (*hgt.Model, *auggraph.Vocab, auggraph.Options, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, auggraph.Options{}, err
	}
	if len(raw) < ckptHdrLen || string(raw[:len(ckptMagic)]) != ckptMagic {
		return nil, nil, auggraph.Options{}, fmt.Errorf("train: %s is not a graph2par checkpoint (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != ckptVersion {
		return nil, nil, auggraph.Options{}, fmt.Errorf("train: %s has checkpoint format version %d, this build reads version %d", path, v, ckptVersion)
	}
	payload := raw[ckptHdrLen:]
	if want := binary.LittleEndian.Uint64(raw[12:]); uint64(len(payload)) != want {
		if uint64(len(payload)) < want {
			return nil, nil, auggraph.Options{}, fmt.Errorf("train: %s is truncated: %d of %d payload bytes", path, len(payload), want)
		}
		return nil, nil, auggraph.Options{}, fmt.Errorf("train: %s payload length mismatch: have %d bytes, header declares %d", path, len(payload), want)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(raw[20:]) {
		return nil, nil, auggraph.Options{}, fmt.Errorf("train: %s is corrupt: payload checksum mismatch", path)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, nil, auggraph.Options{}, fmt.Errorf("train: %s: decoding checkpoint: %w", path, err)
	}
	model := hgt.New(ck.Config)
	params := model.Params.All()
	if len(params) != len(ck.Params) {
		return nil, nil, auggraph.Options{}, fmt.Errorf("train: checkpoint has %d params, model expects %d", len(ck.Params), len(params))
	}
	for i, blob := range ck.Params {
		p := params[i]
		if p.W.Rows != blob.Rows || p.W.Cols != blob.Cols {
			return nil, nil, auggraph.Options{}, fmt.Errorf("train: param %s shape %dx%d vs checkpoint %dx%d",
				p.Name, p.W.Rows, p.W.Cols, blob.Rows, blob.Cols)
		}
		copy(p.W.Data, blob.Data)
	}
	vocab := rebuildVocab(ck.Kinds, ck.Attrs, ck.Types)
	opts := auggraph.Options{CFG: ck.Graph.CFG, Lexical: ck.Graph.Lexical, Reverse: ck.Graph.Reverse, Normalize: ck.Graph.Normalize}
	return model, vocab, opts, nil
}

func vocabTables(v *auggraph.Vocab) (kinds, attrs, types []string) {
	return v.KindNames(), v.AttrNames(), v.TypeNames()
}

func rebuildVocab(kinds, attrs, types []string) *auggraph.Vocab {
	v := auggraph.NewVocab()
	v.Kinds = map[string]int{}
	v.Attrs = map[string]int{}
	v.Types = map[string]int{}
	for i, k := range kinds {
		v.Kinds[k] = i
	}
	for i, k := range attrs {
		v.Attrs[k] = i
	}
	for i, k := range types {
		v.Types[k] = i
	}
	v.RestoreLists(kinds, attrs, types)
	return v
}
