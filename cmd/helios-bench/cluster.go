package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"text/tabwriter"
	"time"

	"helios/internal/monitor"
)

// runCluster implements "helios-bench cluster": it scrapes a coordinator's
// GET /cluster endpoint and renders the worker liveness table, partition
// heat table and stage rollups as the operator-facing dump, then (when
// -flight-dir is set) lists the flight-recorder captures on disk and
// summarises the newest one. Either source alone is fine — a dead cluster
// can still have its black box read.
func runCluster(clusterURL, flightDir string, out io.Writer) error {
	if clusterURL == "" && flightDir == "" {
		return fmt.Errorf("cluster: pass -cluster-url (a coordinator ops address) and/or -flight-dir")
	}
	if clusterURL != "" {
		view, err := fetchCluster(clusterURL)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		printCluster(out, view)
	}
	if flightDir != "" {
		if err := printFlight(out, flightDir); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

func fetchCluster(url string) (*monitor.ClusterView, error) {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/cluster") {
		url = strings.TrimSuffix(url, "/") + "/cluster"
	}
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() {
		//lint:allow droppederror reason=body close after full read; nothing actionable
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var view monitor.ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return &view, nil
}

func printCluster(out io.Writer, v *monitor.ClusterView) {
	fmt.Fprintf(out, "cluster @ %s  skew=%.3fx\n\n",
		time.Unix(0, v.CapturedNS).Format(time.RFC3339), float64(v.SkewMilli)/1000)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tKIND\tVERSION\tSEQ\tUPTIME\tAGE\tSTATE\tBURN\tWORST TRACE")
	for _, w := range v.Workers {
		state := "ok"
		if w.Dead {
			state = "DEAD"
		} else if w.Stale {
			state = "stale"
		}
		burn := "-"
		for _, s := range w.SLOs {
			b := fmt.Sprintf("%s=%.2f", s.Name, float64(s.BurnRateMilli)/1000)
			if burn == "-" {
				burn = b
			} else {
				burn += " " + b
			}
		}
		worst := "-"
		if w.WorstTrace.ID != 0 {
			worst = fmt.Sprintf("%s %s (%s in %s)", w.WorstTrace.Op,
				time.Duration(w.WorstTrace.TotalNS),
				time.Duration(w.WorstTrace.WorstStageNS), w.WorstTrace.WorstStage)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			w.Name, w.Kind, w.Version, w.Seq,
			time.Duration(w.UptimeNS).Round(time.Second),
			time.Duration(w.AgeNS).Round(time.Millisecond), state, burn, worst)
	}
	//lint:allow droppederror reason=tabwriter flush to the caller's writer; stdout errors are not recoverable here
	_ = tw.Flush()

	if len(v.Partitions) > 0 {
		fmt.Fprintln(out)
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "PARTITION\tWORKER\tRATE/S\tBASELINE/S\tHEAT\tLAG\tHIT%\tSTALENESS\tFLAGS")
		for _, p := range v.Partitions {
			fl := "-"
			if p.Stale {
				fl = "stale"
			}
			fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.1f\t%.3f\t%d\t%.1f\t%s\t%s\n",
				p.Partition, p.Worker,
				float64(p.RateMilli)/1000, float64(p.BaselineMilli)/1000,
				float64(p.HeatMilli)/1000,
				p.Lag, float64(p.HitRateMilli)/10,
				time.Duration(p.StalenessNS).Round(time.Millisecond), fl)
		}
		//lint:allow droppederror reason=tabwriter flush to the caller's writer; stdout errors are not recoverable here
		_ = tw.Flush()
	}

	if len(v.Stages) > 0 {
		fmt.Fprintln(out)
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "STAGE\tCOUNT\tMAX P99\tMEAN P99\tWORST WORKER")
		for _, s := range v.Stages {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", s.Stage, s.Count,
				time.Duration(s.MaxP99NS), time.Duration(s.MeanP99NS), s.WorstWorker)
		}
		//lint:allow droppederror reason=tabwriter flush to the caller's writer; stdout errors are not recoverable here
		_ = tw.Flush()
	}
}

func printFlight(out io.Writer, dir string) error {
	fr, err := monitor.NewFlightRecorder(dir, 0, nil)
	if err != nil {
		return err
	}
	paths, err := fr.List()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nflight recorder %s: %d capture(s)\n", dir, len(paths))
	for _, p := range paths {
		fmt.Fprintf(out, "  %s\n", p)
	}
	if len(paths) == 0 {
		return nil
	}
	latest := paths[len(paths)-1]
	doc, err := monitor.ReadCapture(latest)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nlatest: %s\n", latest)
	fmt.Fprintf(out, "  reason=%s worker=%s partition=%d", doc.Reason, doc.Worker, doc.Partition)
	if doc.SLO != "" {
		fmt.Fprintf(out, " slo=%s burn=%.2f", doc.SLO, float64(doc.BurnRateMilli)/1000)
	}
	fmt.Fprintf(out, " at %s\n", time.Unix(0, doc.CapturedNS).Format(time.RFC3339))
	if doc.WorstTrace.ID != 0 {
		fmt.Fprintf(out, "  worst trace: %#x %s total=%s worst stage %s=%s\n",
			doc.WorstTrace.ID, doc.WorstTrace.Op, time.Duration(doc.WorstTrace.TotalNS),
			doc.WorstTrace.WorstStage, time.Duration(doc.WorstTrace.WorstStageNS))
	}
	printCluster(out, &doc.View)
	if len(doc.SlowLines) > 0 {
		fmt.Fprintf(out, "\nlog tail (%d lines):\n", len(doc.SlowLines))
		for _, l := range doc.SlowLines {
			fmt.Fprintf(out, "  %s\n", l)
		}
	}
	return nil
}
