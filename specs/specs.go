// Package specs embeds the predefined experiment suite: e1.json … e14.json in
// this directory are the suite, at small scale. internal/experiment decodes
// them on demand and derives the full-scale documents (pinned under full/)
// from them.
package specs

import "embed"

// FS holds the small-scale suite documents, e<n>.json for n = 1….
//
//go:embed e*.json
var FS embed.FS
