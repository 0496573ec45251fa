package pipeline

import (
	"fmt"

	"chow88/internal/ast"
	"chow88/internal/front"
	"chow88/internal/parser"
)

// LinkUnits implements the paper's §7 compilation setting: "our compiler
// system allows the Ucode from separate program units and from libraries to
// be linked together", so the one-pass inter-procedural allocator sees the
// whole program. Each source unit may declare functions it imports from
// other units as extern; linking replaces those declarations with the
// defining unit's bodies. The result is a single program AST ready for
// whole-program compilation.
//
// Duplicate definitions across units are an error; extern declarations that
// no unit defines remain extern (truly external code, open to the
// allocator). Build links every multi-unit Request through here.
func LinkUnits(srcs ...string) (*ast.Program, error) {
	type funcOrigin struct {
		unit int
		decl *ast.FuncDecl
	}
	defs := map[string]funcOrigin{}
	globals := map[string]int{}
	var units []*ast.Program
	for i, src := range srcs {
		unit, err := parser.Parse(src)
		if err != nil {
			// Classified like any single-unit parse failure (front.StageError),
			// with the unit attributed.
			return nil, &front.StageError{Stage: "parse", Err: fmt.Errorf("link: unit %d: %w", i+1, err)}
		}
		units = append(units, unit)
		for _, d := range unit.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Extern {
					continue
				}
				if prev, dup := defs[d.Name]; dup {
					return nil, &front.StageError{Stage: "sema", Err: fmt.Errorf("link: %s defined in unit %d and unit %d",
						d.Name, prev.unit+1, i+1)}
				}
				defs[d.Name] = funcOrigin{unit: i, decl: d}
			case *ast.VarDecl:
				if prev, dup := globals[d.Name]; dup {
					return nil, &front.StageError{Stage: "sema", Err: fmt.Errorf("link: global %s defined in unit %d and unit %d",
						d.Name, prev+1, i+1)}
				}
				globals[d.Name] = i
			}
		}
	}

	linked := &ast.Program{}
	seenExtern := map[string]bool{}
	for _, unit := range units {
		for _, d := range unit.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if !isFunc || !fd.Extern {
				linked.Decls = append(linked.Decls, d)
				continue
			}
			// An extern declaration resolves against another unit's
			// definition (dropped here; the definition is included where it
			// lives) or stays extern once.
			if _, defined := defs[fd.Name]; defined {
				continue
			}
			if !seenExtern[fd.Name] {
				seenExtern[fd.Name] = true
				linked.Decls = append(linked.Decls, fd)
			}
		}
	}
	return linked, nil
}
