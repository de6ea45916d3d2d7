package serve

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary: the toolchain that built it
// and, when the build had VCS stamping (module builds from a git
// checkout), the revision it was built from. Surfaced as the
// graphhd_build_info gauge on /metrics and in GET /v1/model, so a fleet
// operator can tell exactly which build every server runs.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Build returns the binary's build identity, read once per process via
// debug.ReadBuildInfo. Test binaries and builds outside a VCS checkout
// have no revision; GoVersion is always present.
var Build = sync.OnceValue(func() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.VCSRevision = s.Value
		case "vcs.time":
			bi.VCSTime = s.Value
		case "vcs.modified":
			bi.VCSModified = s.Value == "true"
		}
	}
	return bi
})
