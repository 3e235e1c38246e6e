//! §3: how the three networks grow.

use super::{Console, Context};
use linklens_core::report::{fnum, Table};
use osn_graph::snapshot::Snapshot;
use osn_graph::temporal::DailyGrowth;
use osn_graph::{stats, DAY};
use serde_json::Value;

/// **Table 2** — statistics of the three traces: start/end node and edge
/// counts, snapshot delta, and resulting snapshot count.
///
/// Paper shape to reproduce: three networks of increasing size
/// (facebook < youtube < renren in edges), all with > 15 snapshots and a
/// constant per-snapshot edge delta.
pub(super) fn table2(ctx: &Context, con: &mut Console) -> Value {
    let mut table = Table::new(
        "Table 2: trace statistics (synthetic stand-ins, see DESIGN.md)",
        &[
            "Graph",
            "Start nodes",
            "Start edges",
            "End nodes",
            "End edges",
            "Span (days)",
            "Snapshot delta",
            "Snapshots",
            "Max gap (days)",
        ],
    );
    let mut payload = Vec::new();
    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let first = seq.snapshot(0);
        let last = Snapshot::up_to(trace, trace.edge_count());
        let span_days = (trace.end_time().unwrap_or(0) - trace.start_time().unwrap_or(0)) / DAY;
        let delta = seq.boundary(1) - seq.boundary(0);
        let max_gap = seq.spacings().iter().copied().max().unwrap_or(0) / DAY;
        payload.push(serde_json::json!({
            "network": cfg.name,
            "start_nodes": first.node_count(),
            "start_edges": first.edge_count(),
            "end_nodes": last.node_count(),
            "end_edges": last.edge_count(),
            "span_days": span_days,
            "delta": delta,
            "snapshots": seq.len(),
            "max_gap_days": max_gap,
        }));
        table.push_row(vec![
            cfg.name.clone(),
            first.node_count().to_string(),
            first.edge_count().to_string(),
            last.node_count().to_string(),
            last.edge_count().to_string(),
            span_days.to_string(),
            delta.to_string(),
            seq.len().to_string(),
            max_gap.to_string(),
        ]);
    }
    con.println(&table.render());
    serde_json::to_value(&payload)
}

/// **Figure 1** — daily new nodes and edges for each network.
///
/// Paper shape to reproduce: all three curves grow roughly exponentially
/// over the trace; the renren-like network grows fastest (it is the
/// non-sampled one).
pub(super) fn fig1(ctx: &Context, con: &mut Console) -> Value {
    let mut payload = Vec::new();
    for (cfg, trace) in ctx.traces() {
        let daily = trace.daily_growth();
        let mut table = Table::new(
            format!("Figure 1 ({}): daily growth (every 7th day shown)", cfg.name),
            &["day", "new nodes", "new edges"],
        );
        for d in daily.iter().step_by(7) {
            table.push_row(vec![
                d.day.to_string(),
                d.new_nodes.to_string(),
                d.new_edges.to_string(),
            ]);
        }
        con.print(&table.render());
        // Growth factors across the halves of the growth days — the
        // "exponential trajectory" check. Day 0 holds the seed graph, so
        // it belongs to neither half.
        let growth = daily.get(1..).unwrap_or_default();
        let half = growth.len() / 2;
        let factor = |count: fn(&DailyGrowth) -> usize| {
            let first: usize = growth[..half].iter().map(count).sum();
            let second: usize = growth[half..].iter().map(count).sum();
            second as f64 / first.max(1) as f64
        };
        con.println(&format!(
            "growth factor (days {}-{} / days 1-{}): edges {:.2}, nodes {:.2}\n",
            half + 1,
            growth.len(),
            half,
            factor(|d| d.new_edges),
            factor(|d| d.new_nodes)
        ));
        payload.push(serde_json::json!({
            "network": cfg.name,
            "daily": daily.iter().map(|d| (d.day, d.new_nodes, d.new_edges)).collect::<Vec<_>>(),
        }));
    }
    serde_json::to_value(&payload)
}

/// **Figures 2–4** — average node degree, average path length, and average
/// clustering coefficient over each network's snapshot sequence.
///
/// Paper shape to reproduce: average degree grows for all three networks
/// (densification); renren-like and facebook-like are denser than
/// youtube-like; average path length shrinks as networks densify; the
/// youtube-like network has the largest path length (it is the sparsest).
pub(super) fn fig2_4(ctx: &Context, con: &mut Console) -> Value {
    let mut payload = Vec::new();
    let mut final_rows = Vec::new();
    for (cfg, trace) in ctx.traces() {
        let seq = ctx.sequence(trace);
        let mut table = Table::new(
            format!("Figures 2-4 ({}): properties per snapshot", cfg.name),
            &["snapshot", "edges", "avg degree", "avg path len", "clustering"],
        );
        let mut series = Vec::new();
        // Incremental sweep: one arena per sequence instead of a CSR
        // rebuild per snapshot.
        let mut sweep = seq.snapshots();
        let mut i = 0;
        while let Some(snap) = sweep.next() {
            let p = stats::snapshot_properties(snap, 40);
            table.push_row(vec![
                i.to_string(),
                p.edges.to_string(),
                fnum(p.degree.mean),
                fnum(p.avg_path_length),
                fnum(p.clustering),
            ]);
            series.push(p);
            i += 1;
        }
        con.println(&table.render());
        let chart = linklens_core::chart::Chart::new(
            format!("Figures 2-4 ({}) as a chart", cfg.name),
            64,
            12,
        )
        .series("avg degree", &series.iter().map(|p| p.degree.mean).collect::<Vec<_>>())
        .series("path length", &series.iter().map(|p| p.avg_path_length).collect::<Vec<_>>())
        .series("clustering x10", &series.iter().map(|p| p.clustering * 10.0).collect::<Vec<_>>());
        con.println(&chart.render());
        let first = &series[0];
        let last = series.last().expect("non-empty");
        final_rows.push((
            cfg.name.clone(),
            first.degree.mean,
            last.degree.mean,
            first.avg_path_length,
            last.avg_path_length,
        ));
        payload.push(serde_json::json!({ "network": cfg.name, "series": series }));
    }
    let mut summary = Table::new(
        "Shape check: densification and shrinking diameters",
        &["network", "deg (first)", "deg (last)", "APL (first)", "APL (last)"],
    );
    for (name, d0, d1, a0, a1) in final_rows {
        summary.push_row(vec![name, fnum(d0), fnum(d1), fnum(a0), fnum(a1)]);
    }
    con.println(&summary.render());
    serde_json::to_value(&payload)
}
