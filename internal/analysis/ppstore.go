package analysis

import (
	"go/ast"
	"go/token"
)

// PPStore machine-checks the store write contracts PR 5 documents in
// CHANGES.md: blobs land via temp+rename (never a direct write under the
// committed name), every link of a shard wave is written before the
// PPCKPS1 manifest commits it, chain garbage collection runs only after
// that commit, and Clear-style methods match owned artifact names exactly
// instead of by prefix. The content-addressed chunk layer has the same
// shape of contract and is checked the same way: chunks are put before
// any artifact that references them is saved, and released only after
// every referencing artifact is cleared. Store implementations are
// recognized structurally: any type declaring a SaveManifest method. So are
// blob backends, where the stock stores' writes actually happen: any Put
// method handed a writer callback is held to the same temp+rename rule.
var PPStore = &Analyzer{
	Name: "ppstore",
	Doc:  "pp.Store implementations and call sites must write atomically, commit manifests last, and GC (chains and chunks) only after the commit",
	Run:  runPPStore,
}

func runPPStore(pass *Pass) error {
	implTypes := map[string]bool{}
	forEachFuncBody(pass, func(fd *ast.FuncDecl) {
		if fd.Name.Name == "SaveManifest" {
			if name := funcRecvName(pass.TypesInfo, fd); name != "" {
				implTypes[name] = true
			}
		}
	})

	forEachFuncBody(pass, func(fd *ast.FuncDecl) {
		if fd.Name.Name == "Put" && funcRecvName(pass.TypesInfo, fd) != "" && takesCallback(fd) {
			checkAtomicWrites(pass, fd)
		}
		if implTypes[funcRecvName(pass.TypesInfo, fd)] {
			switch fd.Name.Name {
			case "Save", "SaveDelta", "SaveManifest", "SaveShardDelta", "PutChunk":
				checkAtomicWrites(pass, fd)
			case "Clear", "ClearDeltas", "ClearShardDeltas":
				checkExactNameMatch(pass, fd)
			}
		}
		checkCommitOrdering(pass, fd, implTypes)
		checkChunkOrdering(pass, fd, implTypes)
	})
	return nil
}

// takesCallback reports whether fd's last parameter is a function.
func takesCallback(fd *ast.FuncDecl) bool {
	params := fd.Type.Params.List
	if len(params) == 0 {
		return false
	}
	_, ok := params[len(params)-1].Type.(*ast.FuncType)
	return ok
}

// checkAtomicWrites flags direct writes under a committed name inside a
// store save path; a crash mid-write must leave either the old blob or the
// new one, never a torn file, so saves go through temp+rename(+dirsync).
func checkAtomicWrites(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"WriteFile", "Create"} {
			if isCallTo(pass.TypesInfo, call, "os", name) {
				pass.Reportf(call.Pos(),
					"%s.%s writes a checkpoint blob with os.%s: save paths must write a temp file and rename it over the committed name so a crash never leaves a torn blob",
					funcRecvName(pass.TypesInfo, fd), fd.Name.Name, name)
			}
		}
		return true
	})
}

// checkExactNameMatch flags prefix matching in Clear-style methods: the
// namespace is flat, so app "sor" must not delete "sor2"'s checkpoints.
// Owned names are parsed exactly (CutPrefix + CutSuffix + validation).
func checkExactNameMatch(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"HasPrefix", "Contains"} {
			if isCallTo(pass.TypesInfo, call, "strings", name) {
				pass.Reportf(call.Pos(),
					"%s.%s selects files to delete with strings.%s: match owned artifact names exactly (parse the name and validate the remainder) — prefix matching deletes another app's checkpoints",
					funcRecvName(pass.TypesInfo, fd), fd.Name.Name, name)
			}
		}
		return true
	})
}

// checkCommitOrdering enforces, positionally within one function, the wave
// protocol: links before the manifest, GC after it. The receiver of the
// observed calls must be store-like — the Store interface or a local
// implementation — so unrelated methods with the same names don't trip it.
func checkCommitOrdering(pass *Pass, fd *ast.FuncDecl, implTypes map[string]bool) {
	storeRecv := func(call *ast.CallExpr) bool {
		name := recvTypeName(pass.TypesInfo, call)
		return name == "Store" || implTypes[name]
	}
	var links, manifests, clears []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !storeRecv(call) {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "SaveShardDelta":
			links = append(links, call.Pos())
		case "SaveManifest":
			manifests = append(manifests, call.Pos())
		case "ClearShardDeltas":
			clears = append(clears, call.Pos())
		}
		return true
	})
	if len(manifests) == 0 {
		return
	}
	minManifest, maxManifest := manifests[0], manifests[0]
	for _, p := range manifests[1:] {
		if p < minManifest {
			minManifest = p
		}
		if p > maxManifest {
			maxManifest = p
		}
	}
	for _, p := range links {
		if p > minManifest {
			pass.Reportf(p, "shard link written after SaveManifest at line %d: every link of a wave must land before the manifest commits it, or the manifest references a file that may not exist after a crash",
				pass.Fset.Position(minManifest).Line)
		}
	}
	for _, p := range clears {
		if p < maxManifest {
			pass.Reportf(p, "chain GC before the committing SaveManifest at line %d: collecting links first means a crash between the two loses the only restart point",
				pass.Fset.Position(maxManifest).Line)
		}
	}
}

// checkChunkOrdering enforces, positionally within one function, the
// content-addressed chunk protocol: every chunk an artifact references
// must land (PutChunk) before the artifact itself commits, and chunk
// refcounts drop (ReleaseChunks) only after the referencing artifact is
// cleared. Either order makes a crash between the two calls harmless —
// it leaks an unreferenced chunk, reclaimable by a later release — where
// the reverse order commits an artifact whose chunks may be missing, or
// frees chunks a surviving artifact still points at.
func checkChunkOrdering(pass *Pass, fd *ast.FuncDecl, implTypes map[string]bool) {
	storeRecv := func(call *ast.CallExpr) bool {
		name := recvTypeName(pass.TypesInfo, call)
		return name == "Store" || implTypes[name]
	}
	var puts, releases, saves, clears []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !storeRecv(call) {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "PutChunk":
			puts = append(puts, call.Pos())
		case "ReleaseChunks":
			releases = append(releases, call.Pos())
		case "Save", "SaveDelta", "SaveShardDelta":
			saves = append(saves, call.Pos())
		case "Clear", "ClearDeltas", "ClearShardDeltas":
			clears = append(clears, call.Pos())
		}
		return true
	})
	if len(saves) > 0 {
		minSave := saves[0]
		for _, p := range saves[1:] {
			if p < minSave {
				minSave = p
			}
		}
		for _, p := range puts {
			if p > minSave {
				pass.Reportf(p, "chunk written after the artifact save at line %d: every chunk an artifact references must land before the artifact commits, or a crash leaves a committed artifact pointing at missing chunks",
					pass.Fset.Position(minSave).Line)
			}
		}
	}
	if len(clears) > 0 {
		maxClear := clears[0]
		for _, p := range clears[1:] {
			if p > maxClear {
				maxClear = p
			}
		}
		for _, p := range releases {
			if p < maxClear {
				pass.Reportf(p, "ReleaseChunks before the artifact clear at line %d: chunks are released only after every referencing artifact is cleared, so a crash between the two leaks chunks instead of dangling references",
					pass.Fset.Position(maxClear).Line)
			}
		}
	}
}
