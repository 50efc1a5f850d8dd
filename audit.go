package monoclass

import "monoclass/internal/audit"

// AuditReport summarizes a dataset's health and structure: label
// balance, weight profile, monotone-consistency (violations,
// contending points, k*), and the dominance-width/chain profile that
// determines active labeling cost.
type AuditReport = audit.Report

// HasseDOT renders the Hasse diagram (dominance transitive reduction)
// of a labeled set as Graphviz DOT — positive points filled black,
// negative white, coordinate-equal points collapsed. Limited to 400
// points; the Figure1 fixture renders the paper's Figure 1(a).
func HasseDOT(pts []LabeledPoint) (string, error) { return audit.HasseDOT(pts) }
