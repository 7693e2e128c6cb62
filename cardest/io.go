package cardest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"simquery/internal/cardnet"
	"simquery/internal/faultinject"
	"simquery/internal/model"
)

// Typed load errors. Load failures wrap one of these, so callers can
// distinguish a damaged checkpoint (restore from a replica, fall back to
// retraining) from a version skew (run a migration / upgrade the binary)
// with errors.Is.
var (
	// ErrCorruptModel reports a checkpoint that is empty, truncated,
	// bit-flipped (CRC mismatch), or not a simquery model file at all.
	ErrCorruptModel = errors.New("cardest: corrupt model file")
	// ErrBadVersion reports a checkpoint written by an incompatible format
	// version.
	ErrBadVersion = errors.New("cardest: unsupported model format version")
)

// Checkpoint trailer: the serialized envelope is followed by
//
//	crc32(payload) uint32 LE | format version uint32 LE | magic (8 bytes)
//
// A trailer (rather than a header) keeps the payload at offset 0 and makes
// truncation — the common crash artifact — detectable from the file tail
// alone: a cut-off file loses its magic. DESIGN.md §10 documents the
// format.
const (
	modelMagic    = "SIMQMDL1"
	modelVersion  = 1
	trailerLength = 4 + 4 + len(modelMagic)
)

// envelope tags serialized models with their concrete kind.
type envelope struct {
	Kind string
	Data []byte
}

// Save serializes a trained estimator to a file, crash-safely: the
// payload plus a CRC32/version trailer is written to a temp file in the
// target directory, fsynced, and renamed over path, so a crash at any
// point leaves either the old checkpoint or the new one — never a partial
// file at the target path. Sampling and kernel baselines are rebuilt from
// data rather than serialized and return an error here.
func Save(e Estimator, path string) error {
	env, err := toEnvelope(e)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return fmt.Errorf("cardest: encode: %w", err)
	}
	payload := buf.Bytes()
	var trailer [trailerLength]byte
	binary.LittleEndian.PutUint32(trailer[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(trailer[4:8], modelVersion)
	copy(trailer[8:], modelMagic)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cardest: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		// On any failure — including a crash injected between fsync and
		// rename — leave no stray temp file behind.
		if !committed {
			_ = os.Remove(tmpName)
		}
	}()
	write := func() error {
		if _, err := tmp.Write(payload); err != nil {
			return err
		}
		if _, err := tmp.Write(trailer[:]); err != nil {
			return err
		}
		return tmp.Sync()
	}
	if err := write(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("cardest: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cardest: close %s: %w", path, err)
	}
	if faultinject.Armed() {
		faultinject.SaveCommit.Fire()
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("cardest: commit %s: %w", path, err)
	}
	committed = true
	// Persist the rename itself. Directory fsync is best-effort: not every
	// platform/filesystem supports it, and the data file is already synced.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	// A committed checkpoint is a model-lifecycle event: invalidate
	// generation-stamped estimate caches (DESIGN.md §11).
	bumpModelGeneration()
	return nil
}

func toEnvelope(e Estimator) (envelope, error) {
	// Telemetry wrappers carry no state of their own — serialize what they
	// wrap (Load re-wraps on the way back in).
	if mw, ok := e.(measured); ok {
		e = mw.inner
	}
	// The fault-tolerance wrapper likewise: persist the primary; Harden
	// again after Load.
	if re, ok := e.(*RobustEstimator); ok {
		e = re.primary
	}
	switch v := e.(type) {
	case *GlobalLocalEstimator:
		data, err := v.gl.MarshalBinary()
		if err != nil {
			return envelope{}, err
		}
		return envelope{Kind: "globallocal", Data: data}, nil
	case basicEstimator:
		data, err := v.BasicModel.MarshalBinary()
		if err != nil {
			return envelope{}, err
		}
		return envelope{Kind: "basic", Data: data}, nil
	case *cardnet.CardNet:
		data, err := v.MarshalBinary()
		if err != nil {
			return envelope{}, err
		}
		return envelope{Kind: "cardnet", Data: data}, nil
	default:
		return envelope{}, fmt.Errorf("cardest: %T is not serializable (sampling/kernel baselines are rebuilt from data)", e)
	}
}

// verifyCheckpoint validates the trailer of a checkpoint file and returns
// the payload. Errors wrap ErrCorruptModel or ErrBadVersion and include
// the path.
func verifyCheckpoint(raw []byte, path string) ([]byte, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: %s is empty", ErrCorruptModel, path)
	}
	if len(raw) < trailerLength {
		return nil, fmt.Errorf("%w: %s is truncated (%d bytes, trailer needs %d)", ErrCorruptModel, path, len(raw), trailerLength)
	}
	payload, trailer := raw[:len(raw)-trailerLength], raw[len(raw)-trailerLength:]
	if string(trailer[8:]) != modelMagic {
		return nil, fmt.Errorf("%w: %s has no checkpoint trailer (truncated, or not a simquery model file)", ErrCorruptModel, path)
	}
	if v := binary.LittleEndian.Uint32(trailer[4:8]); v != modelVersion {
		return nil, fmt.Errorf("%w: %s is format version %d, this binary reads version %d", ErrBadVersion, path, v, modelVersion)
	}
	want := binary.LittleEndian.Uint32(trailer[0:4])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: %s CRC mismatch (stored %08x, computed %08x)", ErrCorruptModel, path, want, got)
	}
	return payload, nil
}

// Load restores an estimator saved by Save, verifying the checkpoint's
// magic, format version, and CRC32 before decoding — an empty, truncated,
// or bit-flipped file is rejected with ErrCorruptModel (ErrBadVersion for
// format skew) instead of a raw decode error or a silently wrong model.
// Global-local estimators need the dataset they were trained on to support
// Insert/Retrain; pass it here (nil disables those methods' label
// refresh).
func Load(path string, d *Dataset) (Estimator, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cardest: read %s: %w", path, err)
	}
	payload, err := verifyCheckpoint(raw, path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: %s: decode: %v", ErrCorruptModel, path, err)
	}
	// The restored model may differ from whatever produced currently cached
	// estimates: bump the generation so stale entries are never served.
	bumpModelGeneration()
	switch env.Kind {
	case "globallocal":
		gl := &model.GlobalLocal{}
		if err := gl.UnmarshalBinary(env.Data); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorruptModel, path, err)
		}
		return &GlobalLocalEstimator{gl: gl, ds: d}, nil
	case "basic":
		m := &model.BasicModel{}
		if err := m.UnmarshalBinary(env.Data); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorruptModel, path, err)
		}
		return basicEstimator{m}, nil
	case "cardnet":
		c := &cardnet.CardNet{}
		if err := c.UnmarshalBinary(env.Data); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorruptModel, path, err)
		}
		return measured{c, c.Dim}, nil
	default:
		return nil, fmt.Errorf("%w: %s: unknown model kind %q", ErrCorruptModel, path, env.Kind)
	}
}
