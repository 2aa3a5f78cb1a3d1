package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ClusterState is the coordinator's persisted view of the cluster: enough to
// restart a dead coordinator (jaxpp-train -resume <state file>) and recover
// the job instead of orphaning the worker pool: the control address to
// reform the world at, the attempt count to continue from, and the job spec,
// whose checkpoint directory holds the manifest to resume from. Files written
// with more keys (an address book, rank pins, a minimum world) still load;
// the extra keys are ignored.
type ClusterState struct {
	Version int `json:"version"`
	// CtrlAddr is the rendezvous control address workers reconnect to.
	CtrlAddr string `json:"ctrl_addr"`
	// World is the size of the last formed world.
	World int `json:"world"`
	// Attempt counts rendezvous generations (0 = first bootstrap).
	Attempt int `json:"attempt"`
	// Spec is the marshaled JobSpec the cluster is running.
	Spec          json.RawMessage `json:"spec"`
	UpdatedAtUnix int64           `json:"updated_at_unix"`
}

// StateFileName is the conventional cluster-state filename inside a
// checkpoint directory.
const StateFileName = "cluster-state.json"

// DefaultStatePath places the cluster state inside the checkpoint directory
// ("" when there is no checkpoint directory to anchor it).
func DefaultStatePath(ckptDir string) string {
	if ckptDir == "" {
		return ""
	}
	return filepath.Join(ckptDir, StateFileName)
}

// SaveState atomically persists the cluster state (temp file + rename).
func SaveState(path string, st *ClusterState) error {
	st.Version = Version
	st.UpdatedAtUnix = time.Now().Unix()
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ckpt: publish cluster state: %w", err)
	}
	return nil
}

// LoadState reads a persisted cluster state.
func LoadState(path string) (*ClusterState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	st := &ClusterState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("ckpt: cluster state damaged: %w", err)
	}
	if st.CtrlAddr == "" || len(st.Spec) == 0 {
		return nil, fmt.Errorf("ckpt: cluster state %s missing ctrl_addr or spec", path)
	}
	return st, nil
}
