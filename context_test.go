package graph2par

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestContextVariantsMatchPlainCalls pins the core contract of the
// Context variants: with a live context they are the plain calls —
// identical reports, identical errors — so serving code can route
// everything through them without a behavior fork.
func TestContextVariantsMatchPlainCalls(t *testing.T) {
	e := engineWith(t, EngineConfig{Rewrite: true})
	files := map[string]string{"a.c": simpleProgram}
	plainF, err := e.AnalyzeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	ctxedF, err := e.AnalyzeFilesContext(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainF, ctxedF) {
		t.Error("AnalyzeFilesContext(Background) differs from AnalyzeFiles")
	}

	plainR, err := e.RewriteSource(simpleProgram)
	if err != nil {
		t.Fatal(err)
	}
	ctxedR, err := e.RewriteSourceContext(context.Background(), simpleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainR, ctxedR) {
		t.Error("RewriteSourceContext(Background) differs from RewriteSource")
	}
}

// TestAnalyzeSourceContextCanceled: a context that is already dead must
// yield its error and no reports — before any parsing happens.
func TestAnalyzeSourceContextCanceled(t *testing.T) {
	e := engine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := e.AnalyzeSourceContext(ctx, simpleProgram)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reports != nil {
		t.Errorf("canceled analysis returned %d reports, want none", len(reports))
	}
}

// TestAnalyzeSourceContextDeadline: an expired deadline is reported as
// context.DeadlineExceeded (the error serve maps to 504), not Canceled.
func TestAnalyzeSourceContextDeadline(t *testing.T) {
	e := engine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.AnalyzeSourceContext(ctx, simpleProgram); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestAnalyzeFilesContextCanceled: the batched path returns ctx's error
// and a nil result map on cancellation — never a partial map a caller
// could mistake for a complete batch.
func TestAnalyzeFilesContextCanceled(t *testing.T) {
	e := engine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := e.AnalyzeFilesContext(ctx, map[string]string{"a.c": simpleProgram, "b.c": simpleProgram})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("canceled batch returned a %d-entry result map, want nil", len(out))
	}
}

// TestRewriteSourceContextCanceled: the rewrite pipeline inherits the
// analysis stage's cancellation; a dead context yields its error before
// any splicing.
func TestRewriteSourceContextCanceled(t *testing.T) {
	e := engineWith(t, EngineConfig{Rewrite: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RewriteSourceContext(ctx, simpleProgram)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled rewrite returned a result")
	}
}

// TestContextCancelMidAnalysis: cancelling while a multi-file analysis
// runs stops it at a stage boundary with ctx's error. The cancel lands
// asynchronously, so either outcome — completed before the cancel, or
// stopped with context.Canceled — is legal; what is not legal is any
// other error or a torn result (err == nil but missing files).
func TestContextCancelMidAnalysis(t *testing.T) {
	e := engine(t)
	files := make(map[string]string, 8)
	for i := 0; i < 8; i++ {
		files[string(rune('a'+i))+".c"] = simpleProgram
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	out, err := e.AnalyzeFilesContext(ctx, files)
	switch {
	case err == nil:
		if len(out) != len(files) {
			t.Errorf("completed run returned %d of %d files", len(out), len(files))
		}
	case errors.Is(err, context.Canceled):
		if out != nil {
			t.Error("canceled run returned a partial result map")
		}
	default:
		t.Fatalf("unexpected error: %v", err)
	}
}
