module deca/bench/e2e

go 1.24

require deca v0.0.0

replace deca => ../..
