package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.{CFDFinder, FDep}
import repro.core.detect.ErrorDetector
import repro.core.discovery.{Discovery, Params}
import repro.data.{DirtyData, GeneratedTable}

/** Reproduction harness for paper Table 7: FDep vs CFDFinder vs PFD
  * discovery (dependencies, precision, recall, runtime) plus PFD error
  * detection, over T1–T15. Parameters follow §5.1: coverage 10%, noise 5%,
  * support K=5, CFD confidence 0.995.
  */
object Table7 {

  final case class MethodRow(nDeps: Int, pr: Metrics.PR, millis: Long)

  final case class Row(
      id: Int, name: String, nCols: Int, nRows: Long,
      fdep: MethodRow, cfd: MethodRow, pfd: MethodRow,
      pfdVariable: Int, multiMillis: Long,
      errFlagged: Int, err: Metrics.ErrPR,
      samplePfds: Seq[String])

  /** Paper numbers for side-by-side rendering (Table 7 of the paper). */
  final case class PaperRow(
      fdepDeps: Int, fdepP: String, fdepR: String, fdepSecs: Double,
      cfdDeps: Int, cfdP: String, cfdR: String, cfdSecs: Double,
      pfdDeps: Int, pfdVar: Int, pfdP: String, pfdR: String, pfdSecs: Double,
      multiSecs: Double, errs: Int, errP: String)

  val paper: Map[Int, PaperRow] = Map(
    1  -> PaperRow(12, "66.7", "42.1", 5.4,    0, "-", "-", 89.5,     16, 8,  "100",  "84.2", 125.6, 3276, 0,  "-"),
    2  -> PaperRow(13, "38.5", "45.5", 0.33,   18, "61.1", "55", 8,   16, 12, "68.8", "100",  11.4,  348,  8,  "37.5"),
    3  -> PaperRow(9,  "66.7", "60",   0.14,   3, "0",   "0",  0.5,   8,  8,  "100",  "80",   2.39,  36.1, 0,  "-"),
    4  -> PaperRow(5,  "80",   "36.4", 0.24,   4, "100", "33.3", 0.6, 10, 6,  "90",   "81.8", 8.05,  15.1, 13, "77"),
    5  -> PaperRow(5,  "60",   "60",   10.7,   5, "0",   "0",  154.4, 15, 1,  "33.3", "100",  27.17, 689,  18, "77.7"),
    6  -> PaperRow(8,  "50",   "80",   0.37,   0, "-",   "-",  0.8,   6,  2,  "83.3", "100",  4.3,   4.3,  0,  "-"),
    7  -> PaperRow(4,  "0",    "0",    0.13,   1, "100", "100", 0.4,  1,  0,  "100",  "100",  0.26,  0.26, 2,  "100"),
    8  -> PaperRow(5,  "20",   "20",   5.16,   3, "100", "60", 12.3,  5,  2,  "100",  "100",  32.2,  91,   5,  "40"),
    9  -> PaperRow(10, "0",    "0",    0.29,   6, "16.7", "100", 1.3, 1,  0,  "100",  "100",  0.58,  0.58, 0,  "-"),
    10 -> PaperRow(15, "20",   "50",   0.29,   3, "37.8", "60", 1.6,  8,  1,  "100",  "100",  4.78,  5.15, 31, "58.1"),
    11 -> PaperRow(6,  "100",  "42.9", 96.7,   4, "100", "28.6", 291, 14, 6,  "100",  "100",  155.7, 2284, 0,  "-"),
    12 -> PaperRow(2,  "50",   "9.1",  205.8,  0, "-",   "-",  2529,  17, 4,  "64.7", "100",  598.7, 4729, 6,  "100"),
    13 -> PaperRow(3,  "66.7", "18.2", 805.4,  6, "85.7", "54.5", 1277, 11, 3, "100", "100",  224.8, 1973, 20, "40"),
    14 -> PaperRow(5,  "100",  "17.2", 62.8,   4, "80",  "13.8", 2236, 38, 8, "76.3", "100",  263.8, 2773, 43, "86"),
    15 -> PaperRow(9,  "100",  "50",   124.2,  1, "100", "5.5",  580, 31, 8,  "51.6", "88.9", 374.9, 6121, 8,  "50"))

  /** Run the full experiment for the given table ids.
    *
    * @param scale    row-count scale (1.0 = paper row counts)
    * @param runMulti also run level-2 (multi-LHS) discovery for the runtime
    *                 row — expensive, as in the paper
    */
  def run(spark: SparkSession, ids: Seq[Int] = 1 to 15, scale: Double = 1.0,
          runMulti: Boolean = false, seed: Long = 0): Seq[Row] =
    ids.map { id =>
      val t = DirtyData.table(spark, id, scale, seed)
      runOne(t, id, runMulti)
    }

  def runOne(t: GeneratedTable, id: Int, runMulti: Boolean): Row = Discovery.cached(t.df) { df =>
    df.count()

    val fdep = FDep.discover(df, maxLhs = 2)
    val fdepPr = Metrics.score(fdep.deps, t.groundTruth)

    val cfd = CFDFinder.discover(df, confidence = 0.995, minSupport = 5,
                                 minCoverage = 0.10, maxLhs = 1)
    val cfdPr = Metrics.score(cfd.embedded, t.groundTruth)

    val params = Params(minSupport = 5, noise = 0.05, minCoverage = 0.10, maxLhs = 1)
    val pfd = Discovery.discover(df, params)
    val pfdPr = Metrics.score(pfd.deps.map(d => (d.lhs, d.rhs)), t.groundTruth)
    val nVariable = pfd.deps.count(_.isVariable)

    val multiMillis =
      if (runMulti) Discovery.discover(df, params.copy(maxLhs = 2)).millis
      else -1L

    // §5.3: errors are detected with *validated* dependencies — the expert
    // step is simulated by keeping the PFDs whose embedded dep is genuine.
    val validated = pfd.deps.filter(d => t.groundTruth.contains(repro.data.Dep(d.lhs.toSet, d.rhs)))
    val flagged = ErrorDetector.detect(df, validated)
      .select(repro.core.PFDCheck.TidCol, "attr").distinct()
      .collect().map(r => (r.getLong(0), r.getString(1))).toSet
    val errPr = Metrics.scoreErrors(flagged, t.errorCellSet)

    Row(id, t.name, t.df.columns.count(_ != repro.core.PFDCheck.TidCol), t.nRows,
        MethodRow(fdepPr.found, fdepPr, fdep.millis),
        MethodRow(cfdPr.found, cfdPr, cfd.millis),
        MethodRow(pfdPr.found, pfdPr, pfd.millis),
        nVariable, multiMillis, flagged.size, errPr,
        pfd.deps.take(4).map(_.render))
  }

  /** Paper-style text rendering, ours next to the paper's numbers. */
  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 7 reproduction — measured (paper in parentheses)\n"
    sb ++= ("=" * 110) + "\n"
    rows.foreach { r =>
      val p = paper(r.id)
      sb ++= f"${r.name}: ${r.nCols} cols, ${r.nRows} rows\n"
      sb ++= f"  FDep      #deps=${r.fdep.nDeps}%3d (${p.fdepDeps}%3d)  P=${r.fdep.pr.pStr}%8s (${p.fdepP}%%)  R=${r.fdep.pr.rStr}%8s (${p.fdepR}%%)  t=${r.fdep.millis / 1000.0}%8.2fs (${p.fdepSecs}%.2fs)\n"
      sb ++= f"  CFDFinder #deps=${r.cfd.nDeps}%3d (${p.cfdDeps}%3d)  P=${r.cfd.pr.pStr}%8s (${p.cfdP}%%)  R=${r.cfd.pr.rStr}%8s (${p.cfdR}%%)  t=${r.cfd.millis / 1000.0}%8.2fs (${p.cfdSecs}%.2fs)\n"
      sb ++= f"  PFD       #deps=${r.pfd.nDeps}%3d (${p.pfdDeps}%3d)  P=${r.pfd.pr.pStr}%8s (${p.pfdP}%%)  R=${r.pfd.pr.rStr}%8s (${p.pfdR}%%)  t=${r.pfd.millis / 1000.0}%8.2fs (${p.pfdSecs}%.2fs)  variable=${r.pfdVariable} (${p.pfdVar})\n"
      if (r.multiMillis >= 0)
        sb ++= f"  PFD multi-LHS t=${r.multiMillis / 1000.0}%8.2fs (${p.multiSecs}%.2fs)\n"
      sb ++= f"  Errors    flagged=${r.errFlagged}%4d (${p.errs}%3d)  P=${r.err.pStr}%8s (${p.errP}%%)\n"
      r.samplePfds.foreach(s => sb ++= s"    sample: $s\n")
      sb ++= "\n"
    }
    sb.result()
  }
}
