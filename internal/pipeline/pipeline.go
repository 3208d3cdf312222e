// Package pipeline runs the detection framework in the operator's
// online deployment mode (§8: "the trained models can be directly
// applied on the passively monitored traffic and report issues in real
// time"). Server wraps the live engine (internal/engine) with
// everything that watches it — Prometheus metrics, the model-quality
// monitor, cohort rollups, the flight recorder, SLO rules — and offers
// three doors onto that one path: HTTP /ingest, the binary wire
// listener, and the in-process Server.Ingest the CLI tools call.
package pipeline

import "vqoe/internal/engine"

// SessionReport is an emitted assessment of one finished session.
type SessionReport = engine.Report
