package train

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"

	"graph2par/internal/auggraph"
	"graph2par/internal/hgt"
)

// tinyCheckpoint saves an untrained miniature model and returns its path
// and raw bytes — enough to exercise every header/integrity path without
// the cost of training.
func tinyCheckpoint(t *testing.T) (string, []byte) {
	t.Helper()
	cfg := hgt.Config{
		Hidden: 8, Heads: 2, Layers: 1, Classes: 2,
		NumKinds: 3, NumAttrs: 3, NumTypes: 3,
		EdgeTypes: int(auggraph.NumEdgeTypes), Seed: 5,
	}
	path := t.TempDir() + "/tiny.ckpt"
	if err := SaveCheckpoint(path, hgt.New(cfg), auggraph.NewVocab(), auggraph.Default()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func expectLoadError(t *testing.T, path, wantSubstr string) {
	t.Helper()
	_, _, _, err := LoadCheckpoint(path)
	if err == nil {
		t.Fatalf("LoadCheckpoint(%s) should fail", path)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Errorf("error %q should mention %q", err, wantSubstr)
	}
}

func TestCheckpointHeaderRoundTrip(t *testing.T) {
	path, raw := tinyCheckpoint(t)
	if string(raw[:len(ckptMagic)]) != ckptMagic {
		t.Fatalf("file does not start with magic: %q", raw[:ckptHdrLen])
	}
	if _, _, _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("fresh checkpoint should load: %v", err)
	}
}

func TestLoadCheckpointTruncated(t *testing.T) {
	path, raw := tinyCheckpoint(t)
	for _, keep := range []int{0, ckptHdrLen - 1, ckptHdrLen, ckptHdrLen + len(raw[ckptHdrLen:])/2, len(raw) - 1} {
		trunc := t.TempDir() + "/trunc.ckpt"
		if err := os.WriteFile(trunc, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadCheckpoint(trunc); err == nil {
			t.Errorf("checkpoint truncated to %d of %d bytes should fail", keep, len(raw))
		}
	}
	_ = path
}

func TestLoadCheckpointTrailingGarbage(t *testing.T) {
	_, raw := tinyCheckpoint(t)
	path := t.TempDir() + "/long.ckpt"
	if err := os.WriteFile(path, append(append([]byte(nil), raw...), "extra junk"...), 0o644); err != nil {
		t.Fatal(err)
	}
	// The diagnosis must not claim truncation — the file is too long.
	expectLoadError(t, path, "length mismatch")
}

func TestLoadCheckpointBitFlip(t *testing.T) {
	_, raw := tinyCheckpoint(t)
	flipped := append([]byte(nil), raw...)
	flipped[ckptHdrLen+len(flipped[ckptHdrLen:])/2] ^= 0x40
	path := t.TempDir() + "/flip.ckpt"
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	expectLoadError(t, path, "checksum")
}

func TestLoadCheckpointForeignFile(t *testing.T) {
	path := t.TempDir() + "/foreign.ckpt"
	if err := os.WriteFile(path, []byte("#!/bin/sh\necho definitely not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectLoadError(t, path, "not a graph2par checkpoint")
}

func TestLoadCheckpointVersionMismatch(t *testing.T) {
	_, raw := tinyCheckpoint(t)
	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(future[8:], ckptVersion+7)
	path := t.TempDir() + "/future.ckpt"
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	expectLoadError(t, path, "version")
}

// TestLoadCheckpointWithTrainState loads files in the layout whose
// Checkpoint also carried a mid-training snapshot in a Train field, with
// and without one: gob skips the field and the model loads unchanged.
func TestLoadCheckpointWithTrainState(t *testing.T) {
	type rngState struct {
		State    uint64
		Spare    float64
		HasSpare bool
	}
	type trainState struct {
		Epoch       int
		AdamSteps   int
		AdamM       [][]float64
		AdamV       [][]float64
		RNG         rngState
		TrainIdx    []int
		ValIdx      []int
		BestAcc     float64
		SinceBest   int
		Stopped     bool
		BestWeights [][]float64
	}
	type checkpoint struct {
		Config hgt.Config
		Params []ParamBlob
		Kinds  []string
		Attrs  []string
		Types  []string
		Graph  GraphOptionsBlob
		Train  *trainState
	}
	cfg := hgt.Config{
		Hidden: 8, Heads: 2, Layers: 1, Classes: 2,
		NumKinds: 3, NumAttrs: 3, NumTypes: 3,
		EdgeTypes: int(auggraph.NumEdgeTypes), Seed: 5,
	}
	model := hgt.New(cfg)
	params := model.Params.All()
	full := &trainState{
		Epoch: 2, AdamSteps: 14, RNG: rngState{State: 99, Spare: 0.5, HasSpare: true},
		TrainIdx: []int{3, 1, 2}, ValIdx: []int{0}, BestAcc: 0.75, SinceBest: 1,
	}
	for _, p := range params {
		full.AdamM = append(full.AdamM, make([]float64, len(p.W.Data)))
		full.AdamV = append(full.AdamV, make([]float64, len(p.W.Data)))
		full.BestWeights = append(full.BestWeights, append([]float64(nil), p.W.Data...))
	}
	for _, st := range []*trainState{nil, full} {
		ck := checkpoint{
			Config: cfg,
			Kinds:  []string{"For", "Ident", "Binary"},
			Attrs:  []string{"i", "n", "<"},
			Types:  []string{"int", "double", "char"},
			Graph:  GraphOptionsBlob{CFG: true, Lexical: true},
			Train:  st,
		}
		for _, p := range params {
			ck.Params = append(ck.Params, ParamBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, ckptHdrLen)
		copy(hdr, ckptMagic)
		binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
		binary.LittleEndian.PutUint64(hdr[12:], uint64(payload.Len()))
		binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(payload.Bytes()))
		path := t.TempDir() + "/old.ckpt"
		if err := os.WriteFile(path, append(hdr, payload.Bytes()...), 0o644); err != nil {
			t.Fatal(err)
		}

		got, vocab, gopts, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("train state %v: %v", st != nil, err)
		}
		for i, p := range got.Params.All() {
			if !slices.Equal(p.W.Data, params[i].W.Data) {
				t.Errorf("train state %v: param %s weights differ after load", st != nil, p.Name)
			}
		}
		if !gopts.CFG || !gopts.Lexical || gopts.Reverse || gopts.Normalize {
			t.Errorf("train state %v: graph options %+v", st != nil, gopts)
		}
		if !slices.Equal(vocab.KindNames(), ck.Kinds) || !slices.Equal(vocab.TypeNames(), ck.Types) {
			t.Errorf("train state %v: vocabulary %v %v", st != nil, vocab.KindNames(), vocab.TypeNames())
		}
	}
}
